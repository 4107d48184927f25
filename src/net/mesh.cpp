#include "net/mesh.hpp"

#include <cassert>
#include <cstring>

namespace bfly::net {

namespace {
constexpr sim::Time kWriteOverhead = 50 * sim::kMicrosecond;
constexpr sim::Time kReadOverhead = 40 * sim::kMicrosecond;
}  // namespace

// --- Stream -------------------------------------------------------------

Stream::Stream(Mesh& mesh, std::uint32_t id, sim::NodeId reader_node,
               sim::NodeId writer_node)
    : mesh_(mesh), id_(id), reader_node_(reader_node),
      writer_node_(writer_node) {}

void Stream::write(const void* data, std::size_t n) {
  if (n == 0) return;
  sim::Machine& m = mesh_.m_;
  chrys::Kernel& k = mesh_.k_;
  sim::TraceSpan span(m, "net", "stream_write", n);
  m.charge(kWriteOverhead);
  // Release before the chunk body is published: everything the writer did
  // up to here is visible to whoever reads this stream.  (The dual-queue
  // hand-off publishes an edge too; this one names the stream itself.)
  m.observe_release(sim::chan_of_stream(id_));
  // The chunk body lands in a buffer on the reader's node.
  Mesh::Chunk c;
  c.len = static_cast<std::uint32_t>(n);
  c.buf = m.alloc(reader_node_, n);
  mesh_.with_retry([&] { m.block_write(c.buf, data, n); });
  std::uint32_t cid;
  if (!mesh_.chunk_free_.empty()) {
    cid = mesh_.chunk_free_.back();
    mesh_.chunk_free_.pop_back();
    mesh_.chunks_[cid] = c;
  } else {
    mesh_.chunks_.push_back(c);
    cid = static_cast<std::uint32_t>(mesh_.chunks_.size() - 1);
  }
  k.dq_enqueue(chunk_queue_, cid);
  mesh_.bytes_streamed_ += n;
}

void Stream::read(void* out, std::size_t n) {
  sim::Machine& m = mesh_.m_;
  chrys::Kernel& k = mesh_.k_;
  sim::TraceSpan span(m, "net", "stream_read", n);
  m.charge(kReadOverhead);
  auto* dst = static_cast<std::uint8_t*>(out);
  std::size_t got = 0;
  while (got < n) {
    if (!buffered_.empty()) {
      dst[got++] = buffered_.front();
      buffered_.pop_front();
      continue;
    }
    if (broken_)
      throw chrys::ThrowSignal{chrys::kThrowBrokenStream, id_};
    // Pull the next chunk (blocks until a writer supplies one).  With a
    // read timeout configured, each expiry re-checks the writer's liveness:
    // a silently dead writer posts no EOF sentinel, so the reader's own
    // timeout is what turns "blocked forever" into a broken-stream error.
    std::uint32_t cid;
    if (mesh_.opt_.read_timeout > 0) {
      while (!k.dq_dequeue_for(chunk_queue_, mesh_.opt_.read_timeout, &cid)) {
        if (!k.node_alive(writer_node_)) {
          broken_ = true;
          k.dq_enqueue_uncharged(chunk_queue_, Mesh::kEofCid);
          throw chrys::ThrowSignal{chrys::kThrowBrokenStream, id_};
        }
      }
    } else {
      cid = k.dq_dequeue(chunk_queue_);
    }
    if (cid == Mesh::kEofCid) {
      // The writer exited (or its node died) with bytes still owed.  Put
      // the sentinel back so any later read fails the same way, and raise.
      broken_ = true;
      k.dq_enqueue_uncharged(chunk_queue_, Mesh::kEofCid);
      throw chrys::ThrowSignal{chrys::kThrowBrokenStream, id_};
    }
    m.observe_acquire(sim::chan_of_stream(id_));
    Mesh::Chunk c = mesh_.chunks_[cid];
    mesh_.chunk_free_.push_back(cid);
    std::vector<std::uint8_t> tmp(c.len);
    mesh_.with_retry([&] { m.block_read(tmp.data(), c.buf, c.len); });
    m.free(c.buf, c.len);
    buffered_.insert(buffered_.end(), tmp.begin(), tmp.end());
  }
}

// --- Mesh ---------------------------------------------------------------

Mesh::Mesh(chrys::Kernel& k, std::uint32_t rows, std::uint32_t cols,
           ElementBody body, MeshOptions opt)
    : k_(k), m_(k.machine()), opt_(opt), rows_(rows), cols_(cols) {
  done_queue_ = k_.make_dual_queue();
  elements_.resize(static_cast<std::size_t>(rows) * cols);
  auto at = [this](std::uint32_t r, std::uint32_t c) -> Element& {
    return elements_[static_cast<std::size_t>(r) * cols_ + c];
  };
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      Element& e = at(r, c);
      e.row_ = r;
      e.col_ = c;
      e.node_ = (opt.base_node + r * cols + c) % m_.nodes();
    }
  }
  // Wire the four directions.  out(East) of (r,c) == in(West) of (r,c+1).
  auto connect = [&](Element& from, Direction df, Element& to, Direction dt) {
    Stream* s = make_stream(to.node_, from.node_);
    from.out_[static_cast<int>(df)] = s;
    to.in_[static_cast<int>(dt)] = s;
  };
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      // Eastward and back.
      if (c + 1 < cols) {
        connect(at(r, c), Direction::kEast, at(r, c + 1), Direction::kWest);
        connect(at(r, c + 1), Direction::kWest, at(r, c), Direction::kEast);
      } else if (opt.wrap_cols && cols > 1) {
        connect(at(r, c), Direction::kEast, at(r, 0), Direction::kWest);
        connect(at(r, 0), Direction::kWest, at(r, c), Direction::kEast);
      }
      // Southward and back.
      if (r + 1 < rows) {
        connect(at(r, c), Direction::kSouth, at(r + 1, c), Direction::kNorth);
        connect(at(r + 1, c), Direction::kNorth, at(r, c), Direction::kSouth);
      } else if (opt.wrap_rows && rows > 1) {
        connect(at(r, c), Direction::kSouth, at(0, c), Direction::kNorth);
        connect(at(0, c), Direction::kNorth, at(r, c), Direction::kSouth);
      }
    }
  }
  element_active_.assign(elements_.size(), 1);
  // Crash tier: the mesh hears only broadcast deaths.  Silent kills reach
  // it through excise_node (a failure detector) or a reader's timeout.
  crash_observer_ =
      m_.on_node_crash([this](sim::NodeId n) { handle_node_death(n); });
  for (std::size_t i = 0; i < elements_.size(); ++i) {
    Element* ep = &elements_[i];
    // A kill landing during construction may have excised this element
    // already (the observer above fires mid-charge); and a node found dead
    // at creation time must cost us the element, not the whole mesh.
    if (!element_active_[i]) continue;
    try {
      k_.create_process(
          ep->node_,
          [this, ep, body, i] {
            // A body that throws must still release its obligations: its
            // readers get EOF instead of a silent hang, and join() still
            // gets this element's completion token.
            try {
              body(*ep);
            } catch (const chrys::ThrowSignal&) {
              ++elements_faulted_;
            } catch (const sim::NodeDeadError&) {
              ++elements_faulted_;
            } catch (const sim::NetUnreachableError&) {
              ++elements_faulted_;
            } catch (const sim::MemoryFaultError&) {
              ++elements_faulted_;
            }
            for (Stream* s : ep->out_)
              if (s != nullptr)
                k_.dq_enqueue_uncharged(s->chunk_queue_, kEofCid);
            k_.dq_enqueue(done_queue_, 0);
            element_active_[i] = 0;
          },
          "net-" + std::to_string(ep->row_) + "," + std::to_string(ep->col_));
    } catch (const chrys::ThrowSignal& t) {
      if (t.code != chrys::kThrowNodeDead &&
          t.code != chrys::kThrowNetUnreachable)
        throw;
      if (element_active_[i]) element_gone(i);
    }
  }
}

Mesh::~Mesh() {
  m_.remove_observer(crash_observer_);
}

void Mesh::with_retry(const std::function<void()>& op) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      op();
      return;
    } catch (const sim::MemoryFaultError& e) {
      if (attempt + 1 >= std::max(1u, opt_.retry.attempts)) {
        if (retry_exhausted_) retry_exhausted_(e.node());
        throw;
      }
      m_.charge(opt_.retry.backoff(attempt));
    }
  }
}

void Mesh::excise_node(sim::NodeId n) {
  if (n >= m_.nodes() || m_.node_alive(n)) return;  // never excise the living
  handle_node_death(n);
}

void Mesh::element_gone(std::size_t idx) {
  element_active_[idx] = 0;
  ++elements_lost_;
  Element& e = elements_[idx];
  // The dead element will never write again nor report done; do both on
  // its behalf (uncharged — the PNC's crash handling, not the dead node).
  for (Stream* s : e.out_)
    if (s != nullptr) k_.dq_enqueue_uncharged(s->chunk_queue_, kEofCid);
  k_.dq_enqueue_uncharged(done_queue_, 0);
}

void Mesh::handle_node_death(sim::NodeId n) {
  for (std::size_t i = 0; i < elements_.size(); ++i)
    if (element_active_[i] && elements_[i].node_ == n) element_gone(i);
}

Stream* Mesh::make_stream(sim::NodeId reader_node, sim::NodeId writer_node) {
  auto s = std::unique_ptr<Stream>(
      new Stream(*this, static_cast<std::uint32_t>(streams_.size()),
                 reader_node, writer_node));
  s->chunk_queue_ = k_.make_dual_queue();
  streams_.push_back(std::move(s));
  return streams_.back().get();
}

void Mesh::join() {
  for (std::size_t i = 0; i < elements_.size(); ++i)
    (void)k_.dq_dequeue(done_queue_);
}

}  // namespace bfly::net
