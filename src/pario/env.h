// Cluster storage environment: the file systems a simulated job sees, and
// the MPI-IO-style hint set that tunes how the pario layer accesses them.
//
// One shared file system (holding the formatted database, query file, and
// the output file) plus, when the cluster has node-local disks, one private
// file system per rank (mpiBLAST's fragment copy target). On clusters
// without local disks (the ORNL Altix), `local_for` returns the shared
// scratch instead — exactly the fallback the paper describes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pario/collective.h"
#include "pario/vfs.h"
#include "sim/cluster.h"
#include "util/error.h"

namespace pioblast::pario {

/// Whether noncontiguous independent reads may be data-sieved (one large
/// covering read per hole-y request window instead of one read per range).
enum class SieveMode {
  kAuto,     ///< sieve when the window's useful-byte density clears ds_density
  kEnable,   ///< always sieve windows that fit the sieve buffer
  kDisable,  ///< never bridge holes; only coalesce adjacent/overlapping runs
};

/// MPI-IO-style access hints, mirroring ROMIO's `cb_nodes` /
/// `cb_buffer_size` / `ind_rd_buffer_size` / `romio_ds_read` family
/// (Thakur/Gropp/Lusk, "Optimizing Noncontiguous Accesses in MPI-IO").
/// Parsed from the CLI's `--pario-hints key=value,...` flag; every driver
/// option struct carries one.
struct Hints {
  // ---- collective buffering (two-phase I/O) ------------------------------
  /// Number of aggregator ranks for collective reads/writes (cb_nodes).
  int cb_nodes = 4;
  /// Per-aggregator exchange-buffer size in bytes (cb_buffer_size): the
  /// two-phase shuffle is chunked into rounds of at most this much data
  /// per aggregator. 0 = one unbounded round (the pre-v2 behavior).
  std::uint64_t cb_buffer_size = 256 * 1024;

  // ---- data sieving for independent noncontiguous reads ------------------
  SieveMode ds_read = SieveMode::kAuto;
  /// Sieve-buffer cap: a covering read never spans more than this.
  std::uint64_t ds_buffer_size = 1024 * 1024;
  /// Auto-mode density floor: a window is sieved only while
  /// useful_bytes / covering_span stays at or above this fraction.
  double ds_density = 0.3;

  // ---- list I/O ----------------------------------------------------------
  /// Coalesce adjacent/overlapping requests of a request list before they
  /// hit the (virtual) device. `false` disables merging AND sieving: every
  /// request becomes one device read (the naive independent-read path).
  bool list_io = true;

  /// The two-phase tuning knobs as a CollectiveConfig.
  CollectiveConfig collective() const { return {cb_nodes, cb_buffer_size}; }

  /// Parses "cb_nodes=8,cb_buffer_size=1m,ds_read=auto,ds_buffer_size=4m,
  /// ds_density=0.5,list=on" (ds_read takes auto | enable | disable, list
  /// on | off). Sizes are whole numbers with an optional k/m/g binary
  /// suffix that fit in 64 bits. Throws util::RuntimeError naming the key
  /// on unknown keys or malformed values.
  static Hints parse(std::string_view spec);

  /// Canonical one-line rendering (parseable back through parse()).
  std::string describe() const;
};

class ClusterStorage {
 public:
  ClusterStorage(const sim::ClusterConfig& cluster, int nranks)
      : shared_(cluster.shared_storage) {
    PIOBLAST_CHECK(nranks >= 1);
    if (cluster.has_local_disks()) {
      locals_.reserve(static_cast<std::size_t>(nranks));
      for (int r = 0; r < nranks; ++r)
        locals_.push_back(std::make_unique<VirtualFS>(*cluster.local_disks));
    }
  }

  VirtualFS& shared() { return shared_; }
  const VirtualFS& shared() const { return shared_; }

  bool has_local_disks() const { return !locals_.empty(); }

  /// Rank-private scratch: the node's local disk when present, otherwise
  /// the shared file system (Altix-style shared job scratch).
  VirtualFS& local_for(int rank) {
    if (locals_.empty()) return shared_;
    PIOBLAST_CHECK(rank >= 0 &&
                   rank < static_cast<int>(locals_.size()));
    return *locals_[static_cast<std::size_t>(rank)];
  }

 private:
  VirtualFS shared_;
  std::vector<std::unique_ptr<VirtualFS>> locals_;
};

}  // namespace pioblast::pario
