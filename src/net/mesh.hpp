// NET — regular process networks with byte streams (Hinkelman, BPR 5;
// Section 3.2 of the paper).
//
// NET was the first systems package Rochester built: where Chrysalis needed
// over 100 lines of code to create a single process, NET could create a
// whole mesh of processes, including communication connections, in half a
// page.  It builds regular rectangular meshes — lines, rings, cylinders,
// tori — whose elements talk to their neighbours through untyped byte
// streams.
//
// Streams carry raw bytes with no message boundaries: a reader may consume
// half of one write and the first half of the next, exactly like a pipe.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "chrysalis/kernel.hpp"

namespace bfly::net {

class Mesh;

/// One direction on one edge of the mesh: a FIFO byte stream.
class Stream {
 public:
  /// Write `n` bytes (asynchronous; blocks only for the transfer cost).
  /// Throws sim::NodeDeadError if the reader's node has died (the chunk
  /// buffer lives in the reader's memory).
  void write(const void* data, std::size_t n);
  /// Read exactly `n` bytes, blocking until they have all arrived.  If the
  /// writing element exits or its node dies before supplying them, throws
  /// chrys::ThrowSignal{kThrowBrokenStream} instead of blocking forever.
  void read(void* out, std::size_t n);
  /// The writer is gone and no more bytes will ever arrive.
  bool broken() const { return broken_; }
  /// Bytes immediately available.
  std::size_t available() const { return buffered_.size(); }

  template <typename T>
  void write_value(const T& v) {
    write(&v, sizeof(T));
  }
  template <typename T>
  T read_value() {
    T v{};
    read(&v, sizeof(T));
    return v;
  }

 private:
  friend class Mesh;
  Stream(Mesh& mesh, std::uint32_t id, sim::NodeId reader_node,
         sim::NodeId writer_node);

  Mesh& mesh_;
  std::uint32_t id_;
  sim::NodeId reader_node_;
  sim::NodeId writer_node_;
  chrys::Oid chunk_queue_ = chrys::kNoObject;  // dual queue of chunk ids
  std::deque<std::uint8_t> buffered_;          // reader-side reassembly
  bool broken_ = false;                        // EOF sentinel was seen
};

enum class Direction : std::uint8_t { kNorth, kSouth, kWest, kEast };

/// A mesh element's view of its environment.
class Element {
 public:
  std::uint32_t row() const { return row_; }
  std::uint32_t col() const { return col_; }
  sim::NodeId node() const { return node_; }

  /// Outgoing stream toward `d`; nullptr at an unwrapped boundary.
  Stream* out(Direction d) { return out_[static_cast<int>(d)]; }
  /// Incoming stream from `d`; nullptr at an unwrapped boundary.
  Stream* in(Direction d) { return in_[static_cast<int>(d)]; }

 private:
  friend class Mesh;
  std::uint32_t row_ = 0, col_ = 0;
  sim::NodeId node_ = 0;
  Stream* out_[4] = {};
  Stream* in_[4] = {};
};

using ElementBody = std::function<void(Element&)>;

struct MeshOptions {
  bool wrap_rows = false;  ///< torus in the row direction
  bool wrap_cols = false;  ///< cylinder / torus in the column direction
  sim::NodeId base_node = 0;
  /// When nonzero, a blocked read re-checks the writer's liveness every
  /// `read_timeout` of simulated time and raises kThrowBrokenStream if the
  /// writer's node is gone — the reader's own failure detection, needed for
  /// silent deaths where no EOF sentinel was ever posted.  0 blocks forever
  /// (and preserves the pre-rescue event stream exactly).
  sim::Time read_timeout = 0;
};

/// Builds the mesh (processes plus all streams) and runs an element body on
/// every process.  Construction is "half a page of code" for the caller:
/// one call.
class Mesh {
 public:
  Mesh(chrys::Kernel& k, std::uint32_t rows, std::uint32_t cols,
       ElementBody body, MeshOptions opt = {});
  ~Mesh();

  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  std::uint32_t rows() const { return rows_; }
  std::uint32_t cols() const { return cols_; }

  /// Wait for every element body to return — or for its node to die; a
  /// mesh on a faulty machine still joins (degraded, never deadlocked).
  void join();

  std::uint64_t bytes_streamed() const { return bytes_streamed_; }
  /// Elements whose body ended in an uncaught throw (e.g. a broken stream).
  std::uint64_t elements_faulted() const { return elements_faulted_; }
  /// Elements lost outright to node deaths.
  std::uint64_t elements_lost() const { return elements_lost_; }

  /// Excise a node a failure detector has declared dead: readers of its
  /// elements' streams get EOF, join() gets their completion tokens.  Loud
  /// kills arrive here automatically via the crash broadcast; silent kills
  /// need this call (wire it to rescue::Membership::subscribe).  No-op for
  /// a node that is still alive or already excised.
  void excise_node(sim::NodeId n);

 private:
  friend class Stream;
  /// Sentinel chunk id: "this stream's writer is gone".  Posted uncharged
  /// on writer exit or node death so a blocked reader errors out instead of
  /// waiting forever; never collides with a real chunk id.
  static constexpr std::uint32_t kEofCid = 0xffffffffu;
  struct Chunk {
    sim::PhysAddr buf{};
    std::uint32_t len = 0;
  };

  Stream* make_stream(sim::NodeId reader_node, sim::NodeId writer_node);
  void element_gone(std::size_t idx);
  void handle_node_death(sim::NodeId n);

  chrys::Kernel& k_;
  sim::Machine& m_;
  MeshOptions opt_;
  std::uint32_t rows_, cols_;
  std::vector<Element> elements_;
  std::vector<std::unique_ptr<Stream>> streams_;
  std::deque<Chunk> chunks_;
  std::vector<std::uint32_t> chunk_free_;
  chrys::Oid done_queue_ = chrys::kNoObject;
  std::uint64_t bytes_streamed_ = 0;
  std::vector<std::uint8_t> element_active_;  // body still owes its streams
  std::uint64_t elements_faulted_ = 0;
  std::uint64_t elements_lost_ = 0;
  std::uint64_t crash_observer_ = 0;
};

}  // namespace bfly::net
