#include "pario/collective.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "mpisim/wire.h"
#include "util/error.h"

namespace pioblast::pario {

namespace {

// Driver-visible tags start at 0; Process reserves tags >= 1<<24 for its
// collectives; the pario collectives use a disjoint band above that.
constexpr int kTagShuffle = (1 << 24) + 64;
constexpr int kTagReadReq = (1 << 24) + 65;
constexpr int kTagReadResp = (1 << 24) + 66;
constexpr int kTagFaultSync = (1 << 24) + 67;  ///< liveness bitmap, root->all

/// Agrees on a liveness snapshot before a collective: rank 0 (which the
/// fault model guarantees survives) reads the simulator's dead set and
/// distributes it, so every participant makes the same plan-or-fallback
/// decision even if a rank dies mid-collective later. Only called on
/// fault-tolerant runs.
std::vector<std::uint8_t> sync_liveness(mpisim::Process& p) {
  const auto n = static_cast<std::size_t>(p.size());
  std::vector<std::uint8_t> dead(n, 0);
  if (p.rank() == 0) {
    for (int r = 0; r < p.size(); ++r)
      dead[static_cast<std::size_t>(r)] = p.world().is_dead(r) ? 1 : 0;
    for (int r = 1; r < p.size(); ++r)
      p.send(r, kTagFaultSync, dead);  // sealed mailboxes absorb the dead
  } else {
    dead = p.recv(0, kTagFaultSync).payload;
  }
  return dead;
}

bool any_dead(const std::vector<std::uint8_t>& dead) {
  for (const std::uint8_t d : dead)
    if (d != 0) return true;
  return false;
}

int live_count(const std::vector<std::uint8_t>& dead) {
  int n = 0;
  for (const std::uint8_t d : dead)
    if (d == 0) ++n;
  return n;
}

/// Computes aggregator file-domain boundaries [b0..bA] over the union of
/// all ranks' regions. Executed via gather at rank 0 + broadcast so every
/// rank pays realistic coordination cost.
std::vector<std::uint64_t> agree_domains(mpisim::Process& p, const FileView& view,
                                         int aggregators) {
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t hi = 0;
  for (const Region& r : view.regions()) {
    if (r.length == 0) continue;
    lo = std::min(lo, r.offset);
    hi = std::max(hi, r.offset + r.length);
  }
  mpisim::Encoder enc;
  enc.put(lo).put(hi);
  auto gathered = p.gather(enc.bytes(), /*root=*/0);

  std::vector<std::uint8_t> boundary_buf;
  if (p.rank() == 0) {
    std::uint64_t glo = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t ghi = 0;
    for (const auto& contrib : gathered) {
      // A rank crashed mid-collective leaves an empty gather slot.
      if (contrib.empty()) continue;
      mpisim::Decoder dec(contrib);
      glo = std::min(glo, dec.get<std::uint64_t>());
      ghi = std::max(ghi, dec.get<std::uint64_t>());
    }
    if (glo > ghi) {  // nobody has data
      glo = 0;
      ghi = 0;
    }
    mpisim::Encoder benc;
    benc.put_vector(domain_split(glo, ghi, aggregators));
    boundary_buf = benc.take();
  }
  p.bcast(boundary_buf, /*root=*/0);
  mpisim::Decoder dec(boundary_buf);
  return dec.get_vector<std::uint64_t>();
}

/// Domain index owning file offset `off` (clamped to the last domain).
std::size_t domain_of(const std::vector<std::uint64_t>& bounds, std::uint64_t off) {
  // bounds is non-decreasing with bounds.size() == A+1.
  const auto it = std::upper_bound(bounds.begin(), bounds.end(), off);
  const auto idx = static_cast<std::size_t>(it - bounds.begin());
  const std::size_t ndomains = bounds.size() - 1;
  if (idx == 0) return 0;
  return std::min(idx - 1, ndomains - 1);
}

/// Number of cb_buffer_size-sized exchange rounds domain `d` needs (at
/// least one, so empty domains still keep the message pattern balanced).
/// Every rank derives this from the agreed bounds, so the round structure
/// is consistent without further coordination.
std::uint64_t rounds_of(const std::vector<std::uint64_t>& bounds, std::size_t d,
                        std::uint64_t buffer_size) {
  const std::uint64_t span = bounds[d + 1] - bounds[d];
  if (buffer_size == 0 || span == 0) return 1;
  // Rounds up without the overflow of span + buffer_size - 1, which a
  // buffer size near 2^64 would wrap to 0 rounds.
  return (span - 1) / buffer_size + 1;
}

/// Splits [off, off+len) at domain and round boundaries, invoking
/// `emit(domain, round, chunk_off, chunk_len)` once per piece in file
/// order. The last domain (and each domain's last round) is closed on the
/// right, absorbing any residue beyond its nominal boundary.
template <typename Emit>
void for_each_chunk(const std::vector<std::uint64_t>& bounds,
                    std::uint64_t buffer_size, int naggs, std::uint64_t off,
                    std::uint64_t len, Emit&& emit) {
  std::uint64_t left = len;
  while (left > 0) {
    const std::size_t d = domain_of(bounds, off);
    const std::uint64_t dom_end = bounds[d + 1];
    const bool last_domain =
        d + 1 == static_cast<std::size_t>(naggs) || dom_end <= off;
    std::uint64_t limit = last_domain ? off + left
                                      : std::min(off + left, dom_end);
    std::uint64_t round = 0;
    if (buffer_size != 0) {
      const std::uint64_t nrounds = rounds_of(bounds, d, buffer_size);
      round = std::min((off - bounds[d]) / buffer_size, nrounds - 1);
      if (round + 1 < nrounds) {
        limit = std::min(limit, bounds[d] + (round + 1) * buffer_size);
      }
    }
    const std::uint64_t chunk = limit - off;
    emit(d, round, off, chunk);
    off += chunk;
    left -= chunk;
  }
}

}  // namespace

int effective_aggregators(const CollectiveConfig& cfg, int nprocs) {
  PIOBLAST_CHECK_MSG(cfg.aggregators > 0,
                     "collective I/O: aggregator count (cb_nodes) must be "
                     "positive, got "
                         << cfg.aggregators);
  return std::min(cfg.aggregators, nprocs);
}

std::vector<std::uint64_t> domain_split(std::uint64_t lo, std::uint64_t hi,
                                        int ndomains) {
  PIOBLAST_CHECK_MSG(ndomains >= 1, "domain_split: need >= 1 domain");
  PIOBLAST_CHECK_MSG(lo <= hi, "domain_split: inverted span");
  const std::uint64_t span = hi - lo;
  const auto n = static_cast<std::uint64_t>(ndomains);
  const std::uint64_t base = span / n;
  const std::uint64_t rem = span % n;
  std::vector<std::uint64_t> bounds(static_cast<std::size_t>(ndomains) + 1);
  for (std::uint64_t d = 0; d <= n; ++d) {
    bounds[static_cast<std::size_t>(d)] = lo + d * base + std::min(d, rem);
  }
  return bounds;
}

FileView::FileView(std::vector<Region> regions) : regions_(std::move(regions)) {
  for (std::size_t i = 1; i < regions_.size(); ++i) {
    PIOBLAST_CHECK_MSG(
        regions_[i].offset >= regions_[i - 1].offset + regions_[i - 1].length,
        "file view regions must be sorted and disjoint");
  }
}

std::uint64_t FileView::extent() const {
  std::uint64_t total = 0;
  for (const Region& r : regions_) total += r.length;
  return total;
}

void FileView::append(Region r) {
  if (!regions_.empty()) {
    const Region& prev = regions_.back();
    PIOBLAST_CHECK_MSG(r.offset >= prev.offset + prev.length,
                       "file view regions must be appended in order");
  }
  regions_.push_back(r);
}

std::uint64_t collective_write(mpisim::Process& p, VirtualFS& fs,
                               const std::string& path, const FileView& view,
                               std::span<const std::uint8_t> data,
                               const CollectiveConfig& cfg) {
  PIOBLAST_CHECK_MSG(data.size() == view.extent(),
                     "collective_write: buffer size " << data.size()
                                                      << " != view extent "
                                                      << view.extent());
  const int nprocs = p.size();
  const int naggs = effective_aggregators(cfg, nprocs);

  // Fault-tolerant runs agree on a liveness snapshot first; once any
  // participant is lost the two-phase exchange (whose round structure
  // assumes full participation) is abandoned and every survivor falls
  // back to independent writes of its own regions. Slower — each rank
  // pays seek-heavy non-aggregated I/O — but correct and dead-simple.
  if (p.world().fault_tolerant()) {
    const auto dead = sync_liveness(p);
    if (any_dead(dead)) {
      std::uint64_t buf_pos = 0;
      for (const Region& r : view.regions()) {
        fs.pwrite(path, r.offset, data.subspan(buf_pos, r.length));
        buf_pos += r.length;
      }
      p.io_wait(fs.model().write_seconds(view.extent(), live_count(dead)));
      if (p.rank() == 0) {
        p.trace(mpisim::TraceKind::kRecovery,
                "collective write degraded to independent writes (" +
                    std::to_string(live_count(dead)) + " survivors)");
      }
      p.barrier();
      return data.size();
    }
  }

  const auto bounds = agree_domains(p, view, naggs);

  // ---- phase 1: split regions across aggregator file domains, chunked
  // into cb_buffer_size exchange rounds per domain ------------------------
  std::vector<std::vector<mpisim::Encoder>> batches(
      static_cast<std::size_t>(naggs));
  for (int d = 0; d < naggs; ++d) {
    batches[static_cast<std::size_t>(d)].resize(
        rounds_of(bounds, static_cast<std::size_t>(d), cfg.buffer_size));
  }
  std::uint64_t buf_pos = 0;
  for (const Region& r : view.regions()) {
    for_each_chunk(bounds, cfg.buffer_size, naggs, r.offset, r.length,
                   [&](std::size_t d, std::uint64_t round, std::uint64_t off,
                       std::uint64_t chunk) {
                     batches[d][round].put<std::uint64_t>(off);
                     batches[d][round].put_bytes(data.subspan(buf_pos, chunk));
                     buf_pos += chunk;
                   });
  }

  // Exchange: each rank sends one (possibly empty) batch per round to
  // every aggregator; its own batches stay local at memory-copy cost.
  // Round k of each aggregator is a complete sub-exchange of at most
  // cb_buffer_size file-domain bytes, so aggregator memory stays bounded
  // instead of holding the whole shuffle at once.
  std::vector<std::vector<std::uint8_t>> own_rounds;
  for (int d = 0; d < naggs; ++d) {
    auto& rounds = batches[static_cast<std::size_t>(d)];
    for (auto& round : rounds) {
      auto bytes = round.take();
      if (d == p.rank()) {
        p.compute(p.cost().memcpy_seconds(bytes.size()));
        own_rounds.push_back(std::move(bytes));
      } else {
        p.send(d, kTagShuffle, bytes);
      }
    }
  }

  // ---- phase 2: aggregators apply their file domains round by round ------
  if (p.rank() < naggs) {
    const std::uint64_t nrounds = rounds_of(
        bounds, static_cast<std::size_t>(p.rank()), cfg.buffer_size);
    for (std::uint64_t k = 0; k < nrounds; ++k) {
      std::uint64_t round_bytes = 0;
      for (int r = 0; r < nprocs; ++r) {
        std::vector<std::uint8_t> batch;
        if (r == p.rank()) {
          batch = std::move(own_rounds[k]);
        } else {
          try {
            batch = p.recv(r, kTagShuffle).payload;
          } catch (const mpisim::PeerLostError&) {
            // Rank died between the liveness sync and this round's send;
            // its contribution is lost but the survivors' data still
            // lands.
          }
        }
        mpisim::Decoder dec(batch);
        while (!dec.exhausted()) {
          const auto off = dec.get<std::uint64_t>();
          const auto chunk = dec.get_bytes();
          fs.pwrite(path, off, chunk);
          round_bytes += chunk.size();
        }
      }
      // Large sequential write of this round's coalesced sub-domain,
      // concurrent with the other aggregators.
      if (round_bytes > 0) {
        p.io_wait(fs.model().write_seconds(round_bytes, naggs));
      }
    }
  }

  p.barrier();
  return data.size();
}

std::vector<std::uint8_t> collective_read(mpisim::Process& p, const VirtualFS& fs,
                                          const std::string& path,
                                          const FileView& view,
                                          const CollectiveConfig& cfg) {
  const int nprocs = p.size();
  const int naggs = effective_aggregators(cfg, nprocs);

  // Same degraded path as collective_write: with a participant lost, the
  // survivors read their own regions independently.
  if (p.world().fault_tolerant()) {
    const auto dead = sync_liveness(p);
    if (any_dead(dead)) {
      std::vector<std::uint8_t> out(view.extent());
      std::uint64_t buf_pos = 0;
      for (const Region& r : view.regions()) {
        const auto bytes = fs.pread(path, r.offset, r.length);
        std::memcpy(out.data() + buf_pos, bytes.data(), bytes.size());
        buf_pos += r.length;
      }
      p.io_wait(fs.model().read_seconds(view.extent(), live_count(dead)));
      if (p.rank() == 0) {
        p.trace(mpisim::TraceKind::kRecovery,
                "collective read degraded to independent reads (" +
                    std::to_string(live_count(dead)) + " survivors)");
      }
      p.barrier();
      return out;
    }
  }

  const auto bounds = agree_domains(p, view, naggs);

  // ---- build per-aggregator request lists, chunked at round boundaries ---
  struct Want {
    std::uint64_t file_off;
    std::uint64_t buf_pos;
    std::uint64_t len;
  };
  std::vector<std::vector<Want>> wants(static_cast<std::size_t>(naggs));
  std::uint64_t buf_pos = 0;
  for (const Region& r : view.regions()) {
    for_each_chunk(bounds, cfg.buffer_size, naggs, r.offset, r.length,
                   [&](std::size_t d, std::uint64_t, std::uint64_t off,
                       std::uint64_t chunk) {
                     wants[d].push_back({off, buf_pos, chunk});
                     buf_pos += chunk;
                   });
  }

  std::vector<std::vector<Want>> local_requests(static_cast<std::size_t>(nprocs));
  for (int d = 0; d < naggs; ++d) {
    mpisim::Encoder enc;
    for (const Want& w : wants[static_cast<std::size_t>(d)])
      enc.put(w.file_off).put(w.buf_pos).put(w.len);
    if (d == p.rank()) {
      local_requests[static_cast<std::size_t>(d)] =
          wants[static_cast<std::size_t>(d)];
    } else {
      p.send(d, kTagReadReq, enc.bytes());
    }
  }

  std::vector<std::uint8_t> out(view.extent());

  // ---- aggregators serve their domains round by round ----------------------
  if (p.rank() < naggs) {
    const auto self = static_cast<std::size_t>(p.rank());
    const std::uint64_t nrounds = rounds_of(bounds, self, cfg.buffer_size);
    // Collect each requester's wants, grouped by exchange round.
    std::vector<std::vector<std::vector<Want>>> by_round(
        static_cast<std::size_t>(nprocs));
    for (auto& rounds : by_round)
      rounds.resize(static_cast<std::size_t>(nrounds));
    auto round_of = [&](std::uint64_t off) -> std::uint64_t {
      if (cfg.buffer_size == 0) return 0;
      return std::min((off - bounds[self]) / cfg.buffer_size, nrounds - 1);
    };
    for (int r = 0; r < nprocs; ++r) {
      std::vector<Want> reqs;
      if (r == p.rank()) {
        reqs = std::move(local_requests[static_cast<std::size_t>(r)]);
      } else {
        try {
          const mpisim::Message msg = p.recv(r, kTagReadReq);
          mpisim::Decoder dec(msg.payload);
          while (!dec.exhausted()) {
            Want w;
            w.file_off = dec.get<std::uint64_t>();
            w.buf_pos = dec.get<std::uint64_t>();
            w.len = dec.get<std::uint64_t>();
            reqs.push_back(w);
          }
        } catch (const mpisim::PeerLostError&) {
          // Requester died mid-collective: serve nobody's nothing; the
          // (empty) responses below land in its sealed mailbox.
        }
      }
      for (const Want& w : reqs)
        by_round[static_cast<std::size_t>(r)][round_of(w.file_off)].push_back(w);
    }
    // One bounded sub-domain read per round, then fan that round's data
    // out before touching the next — aggregator memory never exceeds
    // cb_buffer_size plus the in-flight responses.
    for (std::uint64_t k = 0; k < nrounds; ++k) {
      std::uint64_t served = 0;
      std::vector<std::pair<int, mpisim::Encoder>> responses;
      for (int r = 0; r < nprocs; ++r) {
        mpisim::Encoder resp;
        for (const Want& w : by_round[static_cast<std::size_t>(r)][k]) {
          auto bytes = fs.pread(path, w.file_off, w.len);
          served += w.len;
          if (r == p.rank()) {
            std::memcpy(out.data() + w.buf_pos, bytes.data(), bytes.size());
          } else {
            resp.put(w.buf_pos).put_bytes(bytes);
          }
        }
        if (r != p.rank()) responses.emplace_back(r, std::move(resp));
      }
      if (served > 0) p.io_wait(fs.model().read_seconds(served, naggs));
      for (auto& [r, resp] : responses) p.send(r, kTagReadResp, resp.bytes());
    }
  }

  // ---- requesters assemble their buffers, one message per round ------------
  for (int d = 0; d < naggs; ++d) {
    if (d == p.rank()) continue;
    const std::uint64_t nrounds =
        rounds_of(bounds, static_cast<std::size_t>(d), cfg.buffer_size);
    for (std::uint64_t k = 0; k < nrounds; ++k) {
      mpisim::Message msg;
      try {
        msg = p.recv(d, kTagReadResp);
      } catch (const mpisim::PeerLostError&) {
        // Aggregator died mid-collective: this round's bytes are
        // unrecoverable; the affected buffer slices stay zero-filled.
        continue;
      }
      mpisim::Decoder dec(msg.payload);
      while (!dec.exhausted()) {
        const auto pos = dec.get<std::uint64_t>();
        const auto bytes = dec.get_bytes();
        std::memcpy(out.data() + pos, bytes.data(), bytes.size());
      }
    }
  }

  p.barrier();
  return out;
}

std::span<const int> collective_internal_tags() {
  static constexpr int kTags[] = {kTagShuffle, kTagReadReq, kTagReadResp,
                                  kTagFaultSync};
  return kTags;
}

}  // namespace pioblast::pario
