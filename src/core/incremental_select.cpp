#include "core/incremental_select.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

namespace fbc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Empties `result` for a new run, keeping its buffers.
void clear_result(SelectionResult& result) {
  result.chosen.clear();
  result.files.clear();
  result.total_value = 0.0;
  result.file_bytes = 0;
  result.single_request_override = false;
}

}  // namespace

std::string to_string(SelectEngine engine) {
  switch (engine) {
    case SelectEngine::Reference: return "reference";
    case SelectEngine::Incremental: return "incremental";
  }
  return "?";
}

SelectEngine parse_select_engine(const std::string& name) {
  if (name == "reference") return SelectEngine::Reference;
  if (name == "incremental") return SelectEngine::Incremental;
  throw std::invalid_argument("unknown selection engine '" + name +
                              "' (expected reference|incremental)");
}

IncrementalSelector::IncrementalSelector(const FileCatalog& catalog,
                                         RequestHistory& history)
    : catalog_(&catalog), history_(&history) {}

double IncrementalSelector::adjusted_size(FileId id) const noexcept {
  // Mirrors OptCacheSelect::adjusted_size over the live degree table.
  const std::span<const std::uint32_t> degrees = history_->degrees();
  const std::uint32_t d =
      id < degrees.size() ? std::max<std::uint32_t>(1, degrees[id]) : 1;
  return static_cast<double>(catalog_->size_of(id)) / static_cast<double>(d);
}

void IncrementalSelector::reset() {
  synced_ = false;
  // Everything else is rebuilt by the next sync(); epochs keep counting so
  // stale stamps can never collide.
}

void IncrementalSelector::add_supported(std::uint32_t entry) {
  std::uint64_t& word = supported_bits_[entry / 64];
  const std::uint64_t bit = std::uint64_t{1} << (entry % 64);
  if ((word & bit) != 0) return;
  word |= bit;
  ++supported_count_;
}

void IncrementalSelector::remove_supported(std::uint32_t entry) {
  std::uint64_t& word = supported_bits_[entry / 64];
  const std::uint64_t bit = std::uint64_t{1} << (entry % 64);
  if ((word & bit) == 0) return;
  word &= ~bit;
  --supported_count_;
}

void IncrementalSelector::grow_entry_arrays(std::size_t count) {
  adj0_.resize(count, 0.0);
  real0_.resize(count, 0);
  missing_.resize(count, 0);
  dirty_.resize(count, 1);
  supported_bits_.resize((count + 63) / 64, 0);
}

void IncrementalSelector::attach_entry(std::size_t index) {
  const HistoryEntry& entry = history_->entries()[index];
  const auto e = static_cast<std::uint32_t>(index);
  std::uint32_t missing = 0;
  for (FileId id : entry.request.files) {
    if (inverted_.size() <= id) inverted_.resize(id + 1);
    inverted_[id].push_back(e);
    if (resident_.size() <= id) resident_.resize(id + 1, 0);
    if (resident_[id] == 0) ++missing;
  }
  missing_[index] = missing;
  dirty_[index] = 1;
  if (missing == 0) add_supported(e);
}

void IncrementalSelector::full_rebuild() {
  const std::span<const HistoryEntry> entries = history_->entries();
  for (std::vector<std::uint32_t>& list : inverted_) list.clear();
  adj0_.clear();
  real0_.clear();
  missing_.clear();
  dirty_.clear();
  supported_bits_.clear();
  supported_count_ = 0;
  grow_entry_arrays(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) attach_entry(i);
}

void IncrementalSelector::sync(const DiskCache& cache) {
  resident_.assign(catalog_->count(), 0);
  for (FileId id : cache.resident_files()) {
    if (resident_.size() <= id) resident_.resize(id + 1, 0);
    resident_[id] = 1;
  }
  full_rebuild();
  history_->drain_journal();
  synced_ = true;
}

void IncrementalSelector::drain_journal() {
  const HistoryJournal& journal = history_->journal();
  if (journal.empty()) return;
  if (journal.remapped) {
    // Compaction renumbered entries: every cached index is invalid.
    full_rebuild();
    history_->drain_journal();
    return;
  }
  // Degree deltas dirty exactly the entries sharing the touched files
  // (their cached v'(r) denominators changed). Entries added this batch
  // are not in the inverted index yet, but attach_entry marks them dirty
  // unconditionally.
  for (const auto& [id, delta] : journal.degree_deltas) {
    (void)delta;
    if (id < inverted_.size()) {
      for (std::uint32_t e : inverted_[id]) dirty_[e] = 1;
    }
  }
  grow_entry_arrays(history_->entries().size());
  for (std::size_t index : journal.added) attach_entry(index);
  // Value bumps need no action: values are read live at selection time and
  // do not enter the cached denominators.
  history_->drain_journal();
}

void IncrementalSelector::on_files_loaded(std::span<const FileId> loaded) {
  if (!synced_) return;  // first select() resynchronizes from the cache
  for (FileId id : loaded) {
    if (resident_.size() <= id) resident_.resize(id + 1, 0);
    if (resident_[id] != 0) continue;
    resident_[id] = 1;
    if (id < inverted_.size()) {
      for (std::uint32_t e : inverted_[id]) {
        if (--missing_[e] == 0) add_supported(e);
      }
    }
  }
}

void IncrementalSelector::on_file_evicted(FileId id) {
  if (!synced_) return;
  if (resident_.size() <= id || resident_[id] == 0) return;
  resident_[id] = 0;
  if (id < inverted_.size()) {
    for (std::uint32_t e : inverted_[id]) {
      if (missing_[e]++ == 0) remove_supported(e);
    }
  }
}

void IncrementalSelector::ensure_scored(std::uint32_t entry,
                                        SelectionCost* cost) {
  if (dirty_[entry] == 0) return;
  // The cached denominator is the sum over ALL bundle files in bundle
  // order -- bit-identical to what the reference computes for an entry
  // whose bundle misses the free set, because skipping nothing preserves
  // the addition order.
  const HistoryEntry& he = history_->entries()[entry];
  double adj = 0.0;
  Bytes real = 0;
  for (FileId id : he.request.files) {
    adj += adjusted_size(id);
    real += catalog_->size_of(id);
  }
  adj0_[entry] = adj;
  real0_[entry] = real;
  dirty_[entry] = 0;
  if (cost != nullptr) ++cost->entries_rescored;
}

void IncrementalSelector::mark_free(std::span<const FileId> free_files) {
  if (file_epoch_.size() < catalog_->count()) {
    file_epoch_.resize(catalog_->count(), 0);
    file_slot_.resize(catalog_->count(), 0);
  }
  for (FileId id : free_files) {
    file_epoch_[id] = epoch_;
    file_slot_[id] = kFreeSlot;
  }
}

void IncrementalSelector::collect_candidates(const Request& incoming,
                                             SelectionCost* cost) {
  cand_.clear();
  const std::span<const HistoryEntry> entries = history_->entries();
  const std::size_t exclude = history_->entry_index(incoming);
  const RequestHistoryConfig& config = history_->config();

  if (config.mode == HistoryMode::CacheResident) {
    // The exact supported set, walked in history order (the order the
    // reference's full scan produces). All candidates are supported, so
    // the supported-first partition is a no-op.
    if (cost != nullptr) cost->candidates_scanned += supported_count_;
    for (std::size_t w = 0; w < supported_bits_.size(); ++w) {
      for (std::uint64_t bits = supported_bits_[w]; bits != 0;
           bits &= bits - 1) {
        const std::size_t e =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        if (e != exclude) cand_.push_back(static_cast<std::uint32_t>(e));
      }
    }
    return;
  }

  // Full/Window admit entries regardless of residency; replicate the
  // reference's stable supported-first partition using the O(1)
  // missing-count instead of cache.supports.
  if (cost != nullptr) cost->candidates_scanned += entries.size();
  unsupported_.clear();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i == exclude) continue;
    if (config.mode == HistoryMode::Window &&
        entries[i].last_seen + config.window_jobs <=
            history_->observed_jobs()) {
      continue;
    }
    const auto e = static_cast<std::uint32_t>(i);
    if (missing_[i] == 0) {
      cand_.push_back(e);
    } else {
      unsupported_.push_back(e);
    }
  }
  cand_.insert(cand_.end(), unsupported_.begin(), unsupported_.end());
}

void IncrementalSelector::build_initial_sizes(SelectionCost* cost) {
  // One pass over the candidate bundles gives each non-free file a local
  // slot, caches its sizes there and counts its candidates; an entry whose
  // bundle meets the free set needs a per-decision rescore that skips the
  // free files (the reference's addition order), everyone else reuses the
  // cached all-files sums.
  const std::span<const HistoryEntry> entries = history_->entries();
  const std::size_t k = cand_.size();
  values_.resize(k);
  adj_init_.resize(k);
  real_init_.resize(k);
  csr_pos_.clear();
  slot_adj_.clear();
  slot_real_.clear();
  for (std::size_t c = 0; c < k; ++c) {
    const std::uint32_t e = cand_[c];
    bool touches_free = false;
    for (FileId id : entries[e].request.files) {
      if (file_epoch_[id] != epoch_) {
        file_epoch_[id] = epoch_;
        file_slot_[id] = static_cast<std::uint32_t>(csr_pos_.size());
        csr_pos_.push_back(0);
        slot_adj_.push_back(adjusted_size(id));
        slot_real_.push_back(catalog_->size_of(id));
      } else if (file_slot_[id] == kFreeSlot) {
        touches_free = true;
        continue;
      }
      ++csr_pos_[file_slot_[id]];
    }
    values_[c] = entries[e].value;
    if (touches_free) {
      double adj = 0.0;
      Bytes real = 0;
      for (FileId id : entries[e].request.files) {
        const std::uint32_t slot = file_slot_[id];
        if (slot == kFreeSlot) continue;
        adj += slot_adj_[slot];
        real += slot_real_[slot];
      }
      adj_init_[c] = adj;
      real_init_[c] = real;
      if (cost != nullptr) ++cost->entries_rescored;
    } else {
      ensure_scored(e, cost);
      adj_init_[c] = adj0_[e];
      real_init_[c] = real0_[e];
    }
  }

  // Counts -> inclusive prefix ends, then a reverse fill leaves each
  // slot's candidates in ascending order (the reference inverted index's
  // order) with csr_pos_[slot] at its start.
  std::uint32_t total = 0;
  for (std::uint32_t& pos : csr_pos_) {
    total += pos;
    pos = total;
  }
  csr_pos_.push_back(total);
  csr_items_.resize(total);
  for (std::size_t c = k; c-- > 0;) {
    for (FileId id : entries[cand_[c]].request.files) {
      const std::uint32_t slot = file_slot_[id];
      if (slot != kFreeSlot)
        csr_items_[--csr_pos_[slot]] = static_cast<std::uint32_t>(c);
    }
  }
  if (covered_run_.size() < csr_pos_.size())
    covered_run_.resize(csr_pos_.size(), 0);
}

void IncrementalSelector::begin_run() {
  ++run_id_;
  covered_.clear();
  covered_bytes_ = 0;
  covered_lo_ = std::numeric_limits<FileId>::max();
  covered_hi_ = 0;
}

template <typename Fn>
void IncrementalSelector::cover(std::size_t c, Fn&& fn) {
  for (FileId id : history_->entries()[cand_[c]].request.files) {
    const std::uint32_t slot = file_slot_[id];
    if (slot == kFreeSlot || covered_run_[slot] == run_id_) continue;
    covered_run_[slot] = run_id_;
    covered_.push_back(id);
    covered_bytes_ += slot_real_[slot];
    covered_lo_ = std::min(covered_lo_, id);
    covered_hi_ = std::max(covered_hi_, id);
    fn(slot);
  }
}

void IncrementalSelector::take_covered_files(SelectionResult& result) {
  // The run covered each kept file exactly once, so listing them in id
  // order is the reference's sort-and-unique of the chosen bundles: set
  // one bit per id, then read the words between the smallest and the
  // largest id back in order, zeroing each so the bitmap is clean for the
  // next run.
  result.file_bytes = covered_bytes_;
  const std::size_t n = covered_.size();
  if (n == 0) {
    result.files.clear();
    return;
  }
  const std::size_t lo = covered_lo_ / 64;
  const std::size_t hi = covered_hi_ / 64;
  if (kept_bits_.size() <= hi) kept_bits_.resize(hi + 1, 0);
  for (FileId id : covered_)
    kept_bits_[id / 64] |= std::uint64_t{1} << (id % 64);
  result.files.resize(n);
  FileId* out = result.files.data();
  for (std::size_t w = lo; w <= hi; ++w) {
    std::uint64_t bits = kept_bits_[w];
    kept_bits_[w] = 0;
    for (; bits != 0; bits &= bits - 1)
      *out++ = static_cast<FileId>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
  }
}

void IncrementalSelector::finalize_files(SelectionResult& result) {
  begin_run();
  for (std::size_t idx : result.chosen)
    cover(idx, [](std::uint32_t) {});
  take_covered_files(result);
}

void IncrementalSelector::apply_single_override(Bytes budget,
                                                SelectionResult& result) {
  // Algorithm 1 step 3, with the stand-alone size taken from the initial
  // real sizes (integers: equal to the reference's fresh sum).
  double best_value = 0.0;
  std::size_t best_idx = cand_.size();
  for (std::size_t c = 0; c < cand_.size(); ++c) {
    if (values_[c] <= best_value) continue;
    if (real_init_[c] <= budget) {
      best_value = values_[c];
      best_idx = c;
    }
  }
  if (best_idx < cand_.size() && best_value > result.total_value) {
    result.chosen = {best_idx};
    result.total_value = best_value;
    result.single_request_override = true;
    finalize_files(result);
  }
}

void IncrementalSelector::run_basic(Bytes budget, SelectionResult& result) {
  const std::size_t k = cand_.size();
  rank_.resize(k);
  order_.resize(k);
  for (std::size_t c = 0; c < k; ++c) {
    if (values_[c] <= 0.0) {
      rank_[c] = -kInf;
    } else {
      rank_[c] = adj_init_[c] > 0.0 ? values_[c] / adj_init_[c] : kInf;
    }
    order_[c] = static_cast<std::uint32_t>(c);
  }
  std::sort(order_.begin(), order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (rank_[a] != rank_[b]) return rank_[a] > rank_[b];
              return a < b;
            });

  clear_result(result);
  Bytes remaining = budget;
  for (std::size_t idx : order_) {
    if (rank_[idx] == -kInf) break;
    if (real_init_[idx] <= remaining) {
      remaining -= real_init_[idx];
      result.chosen.push_back(idx);
      result.total_value += values_[idx];
    }
  }
  finalize_files(result);
  apply_single_override(budget, result);
}

void IncrementalSelector::run_resort(Bytes budget,
                                     std::span<const std::size_t> seed,
                                     SelectionCost* cost,
                                     SelectionResult& result) {
  // Tournament tree over the k candidates: leaf c is tree_[k + c], inner
  // node i holds the winner of tree_[2i] and tree_[2i + 1], and the root
  // tree_[1] is the live candidate the reference heap pops next. Nodes
  // hold candidate indices; index k is the empty leaf of a taken or dead
  // candidate, so a leaf is live exactly when the reference's candidate
  // is neither selected nor dead (see contract (c) in the header).
  const std::size_t k = cand_.size();
  const auto out = static_cast<std::uint32_t>(k);
  adj_.assign(adj_init_.begin(), adj_init_.end());
  real_.assign(real_init_.begin(), real_init_.end());
  begin_run();
  // The reference heap's operation count: one push per live candidate and
  // per key change, and one pop per push once the run drains the heap.
  std::uint64_t pushes = 0;

  auto key_of = [&](std::size_t c) {
    return adj_[c] > 0.0 ? values_[c] / adj_[c] : kInf;
  };
  // Higher key wins; on a tie the lower index does. The empty leaf's key
  // is -inf, so every live candidate beats it. Branch-free, because which
  // child wins is data-dependent and would mispredict.
  auto winner = [&](std::uint32_t a, std::uint32_t b) {
    const double ka = key_[a];
    const double kb = key_[b];
    return (ka > kb) | ((ka == kb) & (a < b)) ? a : b;
  };
  auto live = [&](std::size_t c) { return tree_[k + c] != out; };
  // Empties leaf c and replays its whole path: a taken or dead candidate
  // is normally the root, the winner all the way up.
  auto remove = [&](std::size_t c) {
    std::size_t node = k + c;
    tree_[node] = out;
    for (node /= 2; node > 0; node /= 2)
      tree_[node] = winner(tree_[2 * node], tree_[2 * node + 1]);
  };
  // After leaf j's key grew, j can only win more nodes: climb while it
  // wins. Above the first node whose winner is unchanged and is not j,
  // nothing changed either.
  auto raise = [&](std::uint32_t j) {
    for (std::size_t node = (k + j) / 2; node > 0; node /= 2) {
      const std::uint32_t w = tree_[node];
      if (w != j && winner(j, w) != j) break;
      tree_[node] = j;
    }
  };

  key_.resize(k + 1);
  key_[k] = -kInf;
  if (is_touched_.size() < k) is_touched_.resize(k, 0);  // zero between takes
  tree_.assign(2 * std::max<std::size_t>(k, 1), out);
  for (std::size_t c = 0; c < k; ++c) {
    if (values_[c] <= 0.0) continue;
    key_[c] = key_of(c);
    tree_[k + c] = static_cast<std::uint32_t>(c);
    ++pushes;
  }
  for (std::size_t node = k; node-- > 1;)
    tree_[node] = winner(tree_[2 * node], tree_[2 * node + 1]);

  clear_result(result);
  Bytes remaining = budget;

  // Taking c subtracts each newly covered file from every live candidate
  // that holds it, file by file as the reference does, so adj_/real_ see
  // the same subtractions in the same order. Only then is each touched
  // candidate re-keyed and raised, once. That leaves the same tree as one
  // raise per subtraction: each raise starts from a tree that is exact for
  // every other key, so it is exact again afterwards; a tree that is
  // exact for a set of keys is unique (the order is strict); and the root
  // is not read before the take ends. The reference pushes once per
  // subtraction, so pushes still counts those.
  auto take = [&](std::size_t c) {
    remove(c);
    remaining -= real_[c];
    result.chosen.push_back(c);
    result.total_value += values_[c];
    touched_.clear();
    cover(c, [&](std::uint32_t slot) {
      const double s_adj = slot_adj_[slot];
      const Bytes s_real = slot_real_[slot];
      for (std::uint32_t p = csr_pos_[slot]; p < csr_pos_[slot + 1]; ++p) {
        const std::uint32_t j = csr_items_[p];
        if (!live(j)) continue;
        adj_[j] -= s_adj;
        real_[j] -= s_real;
        ++pushes;
        if (is_touched_[j] == 0) {
          is_touched_[j] = 1;
          touched_.push_back(j);
        }
      }
    });
    for (std::uint32_t j : touched_) {
      is_touched_[j] = 0;
      key_[j] = key_of(j);
      raise(j);
    }
  };

  // Seeds are positive-value candidates (see run_seeded), so a seed that
  // is not live was already taken.
  for (std::size_t idx : seed) {
    if (!live(idx)) continue;
    if (real_[idx] > remaining) {
      if (cost != nullptr) cost->heap_ops += pushes;
      clear_result(result);
      result.total_value = -1.0;  // infeasible
      return;
    }
    take(idx);
  }

  while (tree_[1] != out) {
    const std::size_t c = tree_[1];
    if (real_[c] > remaining) {
      remove(c);  // dead: skipped for lack of space
      continue;
    }
    take(c);
  }
  if (cost != nullptr) cost->heap_ops += 2 * pushes;

  take_covered_files(result);
  if (seed.empty()) apply_single_override(budget, result);
}

void IncrementalSelector::run_seeded(Bytes budget, int k, SelectionCost* cost,
                                     SelectionResult& best) {
  run_resort(budget, {}, cost, best);
  const std::size_t n = cand_.size();
  std::vector<std::size_t> seed;
  auto consider = [&](std::span<const std::size_t> forced) {
    run_resort(budget, forced, cost, seeded_);
    if (seeded_.total_value > best.total_value) std::swap(best, seeded_);
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (values_[i] <= 0.0) continue;
    seed = {i};
    consider(seed);
    if (k >= 2) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (values_[j] <= 0.0) continue;
        seed = {i, j};
        consider(seed);
      }
    }
  }
}

IncrementalSelector::Selection IncrementalSelector::select(
    const Request& incoming, std::span<const FileId> free_files, Bytes budget,
    SelectVariant variant, const DiskCache& cache, SelectionCost* cost,
    SelectionResult recycled) {
  if (!synced_) {
    sync(cache);
  } else {
    drain_journal();
  }
  ++epoch_;

  mark_free(free_files);
  collect_candidates(incoming, cost);
  build_initial_sizes(cost);

  Selection out{std::move(recycled), cand_.size()};
  switch (variant) {
    case SelectVariant::Basic:
      run_basic(budget, out.result);
      break;
    case SelectVariant::Resort:
      run_resort(budget, {}, cost, out.result);
      break;
    case SelectVariant::Seeded1:
      run_seeded(budget, 1, cost, out.result);
      break;
    case SelectVariant::Seeded2:
      run_seeded(budget, 2, cost, out.result);
      break;
  }
  return out;
}

}  // namespace fbc
