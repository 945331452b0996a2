// IncrementalSelector: the incremental selection engine for the
// OptFileBundle hot path.
//
// The reference path rebuilds everything per replacement decision: it
// scans the whole history to collect candidates (testing cache.supports
// per entry), recomputes every adjusted relative value v'(r) from scratch
// and re-derives the file->item inverted index -- O(|L(R)|) work plus the
// sum of all candidate bundle sizes per miss (the paper's §5.2 scaling
// bottleneck, the reason Fig. 5 studies history truncation at all).
//
// This engine maintains that state *across* decisions and reconciles it
// from two event streams instead:
//
//   * the RequestHistory change-journal (core/request_history.hpp):
//     added entries, value bumps, and exact per-file degree deltas from
//     observation and compaction. A degree delta on file f dirties only
//     the entries containing f (found via a persistent inverted index);
//     dirty entries are lazily rescored the next time they are candidates.
//     A compaction remap invalidates all cached indices and forces a full
//     rebuild -- rare by construction (at most every max_entries/4 jobs).
//
//   * residency events forwarded by the policy (on_files_loaded /
//     on_file_evicted / on_prefetched): a per-file resident bitmap and a
//     per-entry missing-file count make "is this entry supported by the
//     cache?" an O(1) lookup, and the CacheResident candidate set is
//     maintained as an exact entry bitset instead of being re-derived by
//     scanning; walking its set bits yields the candidates in history
//     order without a sort.
//
// Per decision the engine then pays O(|free| + |L(R)|/64 + sum of the
// candidate bundle sizes) to assemble the selection (inherent: the greedy
// admits from all candidates) and rescores only entries that are dirty or
// whose bundles intersect the reserved (free) file set. The free set is an
// epoch-stamped FileId-indexed array (O(1) membership, no sort), and the
// greedy's coverage updates walk a per-decision file -> candidate index
// (CSR) built over the candidates only, never the whole-history inverted
// lists, and read each file's sizes from its slot instead of dividing
// again. Each greedy run collects every newly covered file once; the kept
// ids come back in order from a reused bitmap (one word per 64 ids between
// the smallest and the largest kept id), with no sort. The greedy ranks
// its k candidates in a tournament tree: a take first subtracts the newly
// covered files from every candidate sharing them, then raises each
// touched candidate's leaf once, O(log k), where the reference's
// lazy-deletion heap pushes a new entry per key change and later pops the
// stale one only to throw it away.
//
// Equivalence contract: select() returns byte-identical SelectionResults
// to the reference path (same chosen indices, same files, bitwise-equal
// total_value) for every SelectVariant x HistoryMode. This holds because
//   (a) the candidate list is assembled in the exact order the reference
//       produces (history order, mode-filtered, incoming excluded,
//       supported-first stable partition), so item indices -- and with
//       them every tie-break -- coincide;
//   (b) floating-point sums are never "adjusted": a cached v'(r)
//       denominator is only reused when it is the *same* sum (same files,
//       same degrees, same addition order); anything else is recomputed in
//       bundle order exactly as the reference does (FP addition is not
//       associative, so reusing a differently-ordered sum would diverge);
//   (c) the greedy drain itself replays the reference arithmetic. The
//       reference heap pops in (higher key, then lower index) order, and
//       a candidate's key only grows within a run (coverage only shrinks
//       its adjusted size), so a stale heap entry never outranks the live
//       one: each pop that is not thrown away yields the best live
//       candidate. The tournament tree's root is that candidate by
//       construction, under the same order. Coverage subtractions happen
//       in the same bundle order on the same values (a slot caches the
//       very s'(f) and s(f) the reference computes), and heap_ops is the
//       reference heap's count, derived from the key changes.
// tests/core/test_incremental_select.cpp and the fbcfuzz --engine-diff
// campaign enforce the contract; docs/ALGORITHMS.md discusses the design.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache.hpp"
#include "cache/catalog.hpp"
#include "cache/metrics.hpp"
#include "core/opt_cache_select.hpp"
#include "core/request_history.hpp"

namespace fbc {

/// Which implementation OptFileBundlePolicy uses for its replacement
/// decisions. Both produce identical results; Reference stays the default
/// until the incremental engine has soaked (it is the oracle the
/// differential tests trust).
enum class SelectEngine { Reference, Incremental };

/// Returns "reference" / "incremental".
[[nodiscard]] std::string to_string(SelectEngine engine);

/// Parses "reference" / "incremental" (throws std::invalid_argument
/// otherwise). The inverse of to_string, shared by every CLI that exposes
/// an engine knob (fbcsim --engine, fbcd/fbcload --engine).
[[nodiscard]] SelectEngine parse_select_engine(const std::string& name);

/// The incremental engine (see file comment). Owned by
/// OptFileBundlePolicy, which enables journaling on the shared history and
/// forwards residency events.
class IncrementalSelector {
 public:
  /// Outcome of one replacement decision.
  struct Selection {
    SelectionResult result;
    /// Size of the candidate list (== the reference path's count).
    std::size_t candidate_count = 0;
  };

  /// Both referents must outlive the selector. The history should have
  /// journaling enabled before any request is observed; entries that
  /// predate journaling are picked up by the first full sync.
  IncrementalSelector(const FileCatalog& catalog, RequestHistory& history);

  // -- residency event stream (forwarded by the policy) -------------------

  /// Files inserted into the cache (demand load or prefetch admission).
  void on_files_loaded(std::span<const FileId> loaded);

  /// A resident file was evicted.
  void on_file_evicted(FileId id);

  // -- the decision -------------------------------------------------------

  /// Runs the selection the reference path would run with the same inputs:
  /// candidates from the shared history against `cache`, `incoming`
  /// excluded, files in `free_files` free, `budget` bytes of capacity.
  /// Counters are accumulated into `cost` when non-null. The result is
  /// built in the storage of `recycled`, whose contents are ignored:
  /// handing back the previous decision's result reuses its buffers.
  [[nodiscard]] Selection select(const Request& incoming,
                                 std::span<const FileId> free_files,
                                 Bytes budget, SelectVariant variant,
                                 const DiskCache& cache, SelectionCost* cost,
                                 SelectionResult recycled = {});

  /// Drops all derived state; the next select() resynchronizes from the
  /// history and cache (used by policy reset()).
  void reset();

 private:
  // -- maintenance --------------------------------------------------------
  void sync(const DiskCache& cache);
  void drain_journal();
  void full_rebuild();
  void grow_entry_arrays(std::size_t count);
  void attach_entry(std::size_t index);
  void add_supported(std::uint32_t entry);
  void remove_supported(std::uint32_t entry);
  /// Refreshes the cached (all-files) denominator of a dirty entry.
  void ensure_scored(std::uint32_t entry, SelectionCost* cost);
  [[nodiscard]] double adjusted_size(FileId id) const noexcept;

  // -- per-decision selection (reference arithmetic replayed) -------------
  void mark_free(std::span<const FileId> free_files);
  void collect_candidates(const Request& incoming, SelectionCost* cost);
  /// Initial per-candidate sizes plus the candidate-only file index.
  void build_initial_sizes(SelectionCost* cost);
  /// Starts a greedy run: fresh coverage stamps, empty covered-file list.
  void begin_run();
  /// Marks the non-free files of candidate `c` covered; returns the local
  /// slot of each newly covered file through `fn`.
  template <typename Fn>
  void cover(std::size_t c, Fn&& fn);
  /// Writes the covered files, in id order, and their bytes into result.
  void take_covered_files(SelectionResult& result);
  // The greedy runs overwrite `result` in place, keeping its buffers.
  void run_basic(Bytes budget, SelectionResult& result);
  void run_resort(Bytes budget, std::span<const std::size_t> seed,
                  SelectionCost* cost, SelectionResult& result);
  void run_seeded(Bytes budget, int k, SelectionCost* cost,
                  SelectionResult& best);
  /// Collects the chosen bundles' files (run_basic and Algorithm 1 step 3;
  /// run_resort collects them as it covers them).
  void finalize_files(SelectionResult& result);
  void apply_single_override(Bytes budget, SelectionResult& result);

  const FileCatalog* catalog_;
  RequestHistory* history_;

  // Persistent per-entry state, index-aligned with history entries().
  std::vector<double> adj0_;           ///< cached sum of s'(f) over ALL files
  std::vector<Bytes> real0_;           ///< cached sum of s(f) over ALL files
  std::vector<std::uint32_t> missing_; ///< non-resident files of the bundle
  std::vector<std::uint8_t> dirty_;    ///< adj0_/real0_ stale (degree change)

  // Persistent file-keyed state.
  std::vector<std::vector<std::uint32_t>> inverted_;  ///< file -> entries
  std::vector<std::uint8_t> resident_;                ///< residency bitmap

  // Exact supported-entry set (missing_ == 0) as a bitset over entries.
  std::vector<std::uint64_t> supported_bits_;
  std::size_t supported_count_ = 0;

  bool synced_ = false;

  // Per-decision scratch, epoch-stamped so it never needs clearing. A file
  // stamped with the current epoch is either free (slot kFreeSlot) or
  // appears in some candidate's bundle and owns the local slot
  // file_slot_[id]: its candidates are csr_items_[csr_pos_[slot] ..
  // csr_pos_[slot + 1]), in ascending candidate order.
  static constexpr std::uint32_t kFreeSlot = 0xffffffffU;
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> file_epoch_;
  std::vector<std::uint32_t> file_slot_;
  std::vector<std::uint32_t> csr_pos_;
  std::vector<std::uint32_t> csr_items_;
  // Each slot caches its file's s'(f) and s(f).
  std::vector<double> slot_adj_;
  std::vector<Bytes> slot_real_;
  std::vector<std::uint32_t> cand_;  ///< candidate -> entry index
  std::vector<double> values_;     ///< candidate values (v(r))
  std::vector<double> adj_init_;   ///< candidate initial adjusted sizes
  std::vector<Bytes> real_init_;   ///< candidate initial real sizes

  // Per-greedy-run scratch (seeded variants run many greedy passes).
  std::uint64_t run_id_ = 0;
  std::vector<std::uint64_t> covered_run_;  ///< slot covered in current run
  std::vector<FileId> covered_;             ///< files covered this run
  Bytes covered_bytes_ = 0;                 ///< their total size
  FileId covered_lo_ = 0;                   ///< their smallest id
  FileId covered_hi_ = 0;                   ///< their largest id
  // The kept-id read-back bitmap, all zero between runs.
  std::vector<std::uint64_t> kept_bits_;
  std::vector<double> adj_;
  std::vector<Bytes> real_;

  // run_resort's tournament tree (see there), reused across runs.
  std::vector<std::uint32_t> tree_;  ///< winning candidate per node
  std::vector<double> key_;          ///< candidate key v'(r) this run
  // The candidates one take re-keys, and a membership flag per candidate
  // (all zero between takes).
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint8_t> is_touched_;

  // run_seeded's scratch: the result of the seeded run under way.
  SelectionResult seeded_;

  // run_basic's and collect_candidates' scratch.
  std::vector<double> rank_;
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> unsupported_;
};

}  // namespace fbc
