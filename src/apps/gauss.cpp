#include "apps/gauss.hpp"

#include <cassert>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "sim/rng.hpp"
#include "smp/family.hpp"
#include "us/uniform_system.hpp"

namespace bfly::apps {

void generate_system(std::uint32_t n, std::uint64_t seed,
                     std::vector<double>& a, std::vector<double>& b) {
  sim::Rng rng(seed);
  a.assign(static_cast<std::size_t>(n) * n, 0.0);
  b.assign(n, 0.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j)
      a[static_cast<std::size_t>(i) * n + j] = rng.uniform();
    a[static_cast<std::size_t>(i) * n + i] += n;  // diagonal dominance
    b[i] = rng.uniform() * n;
  }
}

// Aligned to a cache line so the loop's placement does not depend on how
// much code the linker puts before this function: on a 4-core x86-64 Xeon
// host the elimination loop ran ~2.4x slower when it straddled a 64-byte
// line.  Not inlined, so all three variants share that one placement.
//
// The GCC vector type makes the baseline x86-64 -O2 build emit packed
// mulpd/subpd.  Each lane still does one IEEE multiply and one subtract in
// the scalar loop's order, so the bits match it (no -ffast-math, and the
// baseline ISA has no FMA to contract into).
[[gnu::aligned(64), gnu::noinline]] void row_update(double* row,
                                                    const double* piv,
                                                    double f,
                                                    std::uint32_t from,
                                                    std::uint32_t to) {
  using v2d = double __attribute__((vector_size(16)));
  const v2d fv = {f, f};
  double* out = row + from;
  const double* in = piv + from;
  double* const end = row + to;
  for (; end - out >= 2; out += 2, in += 2) {
    v2d r, p;
    std::memcpy(&r, out, sizeof r);
    std::memcpy(&p, in, sizeof p);
    r -= fv * p;
    std::memcpy(out, &r, sizeof r);
  }
  if (out != end) *out -= f * *in;
}

std::vector<double> gauss_reference(std::uint32_t n, std::uint64_t seed) {
  std::vector<double> a, b;
  generate_system(n, seed, a, b);
  for (std::uint32_t k = 0; k < n; ++k) {
    const double* piv = &a[static_cast<std::size_t>(k) * n];
    for (std::uint32_t i = k + 1; i < n; ++i) {
      double* row = &a[static_cast<std::size_t>(i) * n];
      const double f = row[k] / piv[k];
      row_update(row, piv, f, k, n);
      b[i] -= f * b[k];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::uint32_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::uint32_t j = ii + 1; j < n; ++j)
      s -= a[static_cast<std::size_t>(ii) * n + j] * x[j];
    x[ii] = s / a[static_cast<std::size_t>(ii) * n + ii];
  }
  return x;
}

double gauss_error(const GaussResult& r, std::uint32_t n, std::uint64_t seed) {
  const std::vector<double> ref = gauss_reference(n, seed);
  double e = 0.0;
  for (std::uint32_t i = 0; i < n; ++i)
    e = std::max(e, std::fabs(ref[i] - r.solution[i]));
  return e;
}

// ---------------------------------------------------------------------------
// Uniform System version.
// ---------------------------------------------------------------------------

GaussResult gauss_us(sim::Machine& m, const GaussConfig& cfg) {
  const std::uint32_t n = cfg.n;
  const std::size_t row_bytes = (static_cast<std::size_t>(n) + 1) * 8;

  chrys::Kernel k(m);
  us::UsConfig ucfg;
  ucfg.processors = cfg.processors;
  ucfg.memory_nodes = cfg.memory_nodes;
  us::UniformSystem us(k, ucfg);
  const std::uint32_t procs = us.processors();

  GaussResult result;
  std::vector<double> a, b;
  generate_system(n, cfg.seed, a, b);

  us.run_main([&] {
    // Rows scattered over the memory nodes: row i holds a[i][*] then b[i].
    std::vector<sim::PhysAddr> rows = us.scatter_rows(n, row_bytes);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::vector<double> row(n + 1);
      std::memcpy(row.data(), &a[static_cast<std::size_t>(i) * n], n * 8);
      row[n] = b[i];
      m.poke_bytes(rows[i], row.data(), row_bytes);  // untimed distribution
    }

    // Per-worker pivot-row cache: the standard US copy-to-local idiom.
    std::vector<std::int64_t> cached_pivot(procs, -1);
    std::vector<std::vector<double>> pivot_local(
        procs, std::vector<double>(n + 1));
    std::vector<std::vector<double>> scratch(procs,
                                             std::vector<double>(n + 1));

    const sim::Time t0 = m.now();
    m.stats().reset();

    for (std::uint32_t kk = 0; kk < n - 1; ++kk) {
      const std::uint32_t first = kk + 1;
      const std::uint32_t span = n - first;
      const std::uint32_t chunks = std::min(procs, span);
      us.for_all(0, chunks, [&, kk, first, span, chunks](us::TaskCtx& c) {
        const std::uint32_t w = c.worker;
        // Fetch the pivot row once per worker per pivot.
        if (cached_pivot[w] != static_cast<std::int64_t>(kk)) {
          c.us.copy_to_local(pivot_local[w].data(), rows[kk], row_bytes);
          cached_pivot[w] = kk;
        }
        const std::vector<double>& piv = pivot_local[w];
        std::vector<double>& local = scratch[w];
        // This chunk's rows: first + arg, first + arg + chunks, ...
        for (std::uint32_t r = first + c.arg; r < n; r += chunks) {
          c.us.copy_to_local(local.data(), rows[r], row_bytes);
          const double f = local[kk] / piv[kk];
          row_update(local.data(), piv.data(), f, kk, n + 1);
          c.m.flops(2 * (n - kk) + 2);
          c.us.copy_from_local(rows[r], local.data(), row_bytes);
        }
      });
    }

    // Back substitution: the serial component, charged to the main process.
    std::vector<double> x(n, 0.0);
    std::vector<double> row(n + 1);
    for (std::uint32_t ii = n; ii-- > 0;) {
      us.copy_to_local(row.data(), rows[ii], row_bytes);
      double s = row[n];
      for (std::uint32_t j = ii + 1; j < n; ++j) s -= row[j] * x[j];
      m.flops(2 * (n - ii) + 1);
      x[ii] = s / row[ii];
    }

    result.elapsed = m.now() - t0;
    result.solution = x;
  });

  for (const auto& s : m.stats().node) {
    result.remote_refs += s.remote_refs;
    result.block_words += s.block_words;
    result.queue_ns += s.queue_ns;
  }
  return result;
}

// ---------------------------------------------------------------------------
// SMP (message passing) version.
// ---------------------------------------------------------------------------

GaussResult gauss_smp(sim::Machine& m, const GaussConfig& cfg) {
  const std::uint32_t n = cfg.n;
  chrys::Kernel k(m);
  const std::uint32_t procs =
      cfg.processors == 0 ? m.nodes() : std::min(cfg.processors, m.nodes());

  GaussResult result;
  std::vector<double> a, b;
  generate_system(n, cfg.seed, a, b);

  k.create_process(0, [&] {
    // Interleaved row ownership: member w owns rows r with r % procs == w.
    // Rows live in each member's local memory (host-side buffers model the
    // member's local heap; arithmetic time is charged via flops()).
    std::vector<std::vector<std::vector<double>>> mine(procs);
    for (std::uint32_t w = 0; w < procs; ++w) {
      for (std::uint32_t r = w; r < n; r += procs) {
        std::vector<double> row(n + 1);
        std::memcpy(row.data(), &a[static_cast<std::size_t>(r) * n], n * 8);
        row[n] = b[r];
        mine[w].push_back(std::move(row));
      }
    }

    const sim::Time t0 = m.now();
    m.stats().reset();

    smp::Family fam(
        k, smp::Topology::complete(procs),
        [&](smp::Member& me) {
          const std::uint32_t w = me.index();
          auto& rows_w = mine[w];
          std::vector<double> pivot(n + 1);
          auto row_of = [&](std::uint32_t r) -> std::vector<double>& {
            return rows_w[r / procs];
          };
          // Broadcasts from different owners can arrive out of order (owner
          // k+1 races owner k's tail sends); stash early arrivals by tag.
          // In-order messages land in one reused inbox, already sized.
          std::unordered_map<std::uint32_t, smp::Message> stash;
          smp::Message inbox;
          auto recv_tag = [&](std::uint32_t want) -> const smp::Message& {
            auto it = stash.find(want);
            if (it != stash.end()) {
              inbox = std::move(it->second);
              stash.erase(it);
              return inbox;
            }
            while (true) {
              me.receive(&inbox);
              if (inbox.tag == want) return inbox;
              stash.emplace(inbox.tag, std::move(inbox));
            }
          };
          for (std::uint32_t kk = 0; kk < n - 1; ++kk) {
            if (kk % procs == w) {
              // I own the pivot row: broadcast it (serialized at me —
              // this is the P*N message volume).
              pivot = row_of(kk);
              for (std::uint32_t d = 0; d < procs; ++d)
                if (d != w)
                  me.send(d, kk, pivot.data(), (n + 1) * 8);
            } else if (procs > 1) {
              const smp::Message& msg = recv_tag(kk);
              std::memcpy(pivot.data(), msg.payload.data(), (n + 1) * 8);
            }
            // Update my rows below the pivot: the first one after kk, then
            // every procs-th (rows_w[i] is row i * procs + w).
            const std::uint32_t first =
                kk + 1 + (w + procs - (kk + 1) % procs) % procs;
            for (std::uint32_t r = first, i = first / procs; r < n;
                 r += procs, ++i) {
              std::vector<double>& row = rows_w[i];
              const double f = row[kk] / pivot[kk];
              row_update(row.data(), pivot.data(), f, kk, n + 1);
              m.flops(2 * (n - kk) + 2);
            }
          }
          // Funnel the reduced rows to member 0 for back substitution.
          if (w != 0) {
            for (std::uint32_t r = w; r < n; r += procs)
              me.send(0, 0x10000 + r, row_of(r).data(), (n + 1) * 8);
          } else {
            std::vector<std::vector<double>> full(n);
            for (std::uint32_t r = 0; r < n; r += procs)
              full[r] = row_of(r);
            for (std::uint32_t r = 0; r < n; ++r) {
              if (r % procs == 0) continue;
              const smp::Message& msg = recv_tag(0x10000 + r);
              full[r].resize(n + 1);
              std::memcpy(full[r].data(), msg.payload.data(), (n + 1) * 8);
            }
            std::vector<double> x(n, 0.0);
            for (std::uint32_t ii = n; ii-- > 0;) {
              double s = full[ii][n];
              for (std::uint32_t j = ii + 1; j < n; ++j)
                s -= full[ii][j] * x[j];
              m.flops(2 * (n - ii) + 1);
              x[ii] = s / full[ii][ii];
            }
            result.solution = x;
          }
        });
    fam.join();
    result.elapsed = m.now() - t0;
    result.messages = fam.messages_sent();
  });
  m.run();

  for (const auto& s : m.stats().node) {
    result.remote_refs += s.remote_refs;
    result.block_words += s.block_words;
    result.queue_ns += s.queue_ns;
  }
  return result;
}

}  // namespace bfly::apps
