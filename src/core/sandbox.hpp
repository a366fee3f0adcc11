// Sandbox: the unit of isolation. Wraps one scripting context ("its own
// heap"), the vocabularies, a kill flag for the resource manager, and a cache
// of loaded stages (evaluated scripts + their decision trees). Contexts are
// expensive to create and cheap to reuse — the paper measures 1.5 ms vs 3 µs
// — so nodes pool sandboxes per site.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/script_cache.hpp"
#include "core/decision_tree.hpp"
#include "core/match_compiler.hpp"
#include "core/vocabulary.hpp"
#include "js/bytecode.hpp"
#include "js/interpreter.hpp"

namespace nakika::core {

struct stage_load_stats {
  double parse_seconds = 0.0;     // real time spent parsing
  double compile_seconds = 0.0;   // real time lowering to bytecode (VM engine)
  double execute_seconds = 0.0;   // real time evaluating + registering
  double tree_seconds = 0.0;      // real time building the decision tree
  bool from_cache = false;        // evaluated stage reused (per-sandbox)
  bool chunk_cache_hit = false;   // compiled chunk reused (cross-sandbox)
};

// Shared cache of compiled chunks keyed by source content hash. Chunks are
// immutable, so one cache instance can feed every sandbox of a node (and,
// later, every worker thread).
using chunk_cache = cache::lru_cache<js::compiled_program_ptr>;

class sandbox {
 public:
  explicit sandbox(js::context_limits limits = {});

  struct loaded_stage {
    std::shared_ptr<const decision_tree> tree;
    // Bytecode form of the tree's predicates (null when the tree wasn't
    // compilable or the caller skipped it).
    std::shared_ptr<const compiled_matcher> matcher;
    std::uint64_t version = 0;
    std::size_t policy_count = 0;
  };

  // Returns the cached stage for (url, version) or nullptr.
  [[nodiscard]] const loaded_stage* find_stage(const std::string& url,
                                               std::uint64_t version) const;

  // Parses + evaluates `source` in this sandbox (policies register during
  // evaluation), builds the decision tree, and caches it under (url,
  // version). Throws js::script_error on script failure. `compile_matcher`
  // lowers the tree's predicates to bytecode too — callers that reload a stage per request (the nkp path) pass false, since
  // a matcher that is never reused can't amortize its build.
  const loaded_stage& load_stage(const std::string& url, const std::string& source,
                                 std::uint64_t version, stage_load_stats* stats = nullptr,
                                 bool compile_matcher = true);

  void evict_stage(const std::string& url);

  // FIND-CLOSEST-MATCH for one loaded stage: the compiled predicate chunk
  // when available (evaluated in this sandbox's bare matcher context, so the
  // script context's accounting is untouched), the tree walk otherwise. Both
  // agree exactly (predicate-parity suite in tests/policy_test.cpp).
  [[nodiscard]] match_result match_stage(const loaded_stage& stage, const http::request& r);

  // Attaches a (node-owned, shared) compiled-chunk cache.
  void set_chunk_cache(chunk_cache* cache) { chunk_cache_ = cache; }

  [[nodiscard]] js::context& ctx() { return *ctx_; }
  [[nodiscard]] const exec_binding_ptr& binding() const { return binding_; }

  // Resets per-run counters; call before each pipeline execution.
  void begin_run();
  [[nodiscard]] std::uint64_t ops_used() const { return ctx_->ops_used(); }
  [[nodiscard]] std::size_t heap_used() const { return ctx_->heap_used(); }
  // Allocation pressure this run, the memory figure the resource manager
  // bills. Bytes the cycle collector reclaimed mid-run are added back: the
  // tenant allocated them either way, and billing must be byte-identical
  // with the collector on or off (workers=0 determinism digest).
  [[nodiscard]] std::size_t allocation_churn() const {
    return ctx_->heap_used() + ctx_->transient_used() + ctx_->gc_reclaimed_run();
  }
  // Cycle-collector activity of the current run (reset by begin_run).
  [[nodiscard]] const js::gc_run_stats& gc_run_stats() const {
    return ctx_->gc().run_stats();
  }
  // Inline-cache effectiveness of the current run (reset by begin_run).
  [[nodiscard]] std::uint64_t ic_hits() const { return ctx_->ic_hits(); }
  [[nodiscard]] std::uint64_t ic_misses() const { return ctx_->ic_misses(); }
  // Polymorphism split of the above: way-0 hits (monomorphic sites), ways 1-3
  // (polymorphic), and lookups at sites that went megamorphic (≥5 layouts;
  // counted under ic_misses).
  [[nodiscard]] std::uint64_t ic_mono_hits() const { return ctx_->ic_mono_hits(); }
  [[nodiscard]] std::uint64_t ic_poly_hits() const { return ctx_->ic_poly_hits(); }
  [[nodiscard]] std::uint64_t ic_mega_lookups() const { return ctx_->ic_mega_lookups(); }
  // Shape (hidden-class) activity of the current run, and the context's
  // current interned-shape count.
  [[nodiscard]] std::uint64_t shape_transitions() const {
    return ctx_->shape_transitions_run();
  }
  [[nodiscard]] std::uint64_t shape_dict_fallbacks() const {
    return ctx_->shape_dict_fallbacks_run();
  }
  [[nodiscard]] std::size_t shapes_live() const { return ctx_->shapes_live(); }

  // Frees pooled VM frames beyond a small working set; sandbox_pool calls
  // this when the sandbox returns to the pool so idle sandboxes don't retain
  // deep-recursion stack capacity.
  void trim_vm_arena();

  // Pool-return reclamation: runs a full cycle-collection over the script
  // heap (so an idle pooled sandbox holds only its live set, not the cyclic
  // garbage of the last request) and shrinks the VM frame arena. Cheap when
  // nothing was allocated since the last cycle. Returns what the collection
  // freed so the caller can bill the GC time to the owning site.
  js::gc_cycle_result reclaim();

  // Termination hook for the resource manager (checked at op boundaries,
  // so it also stops native vocabulary loops between charges).
  void kill() { ctx_->kill_flag()->store(true); }
  // Rearms the flag after a run. Only safe once the pipeline has been
  // deregistered (pipeline_finished) so the monitor can no longer target it —
  // clearing any earlier (e.g. at run start) would erase a concurrent
  // monitor-thread termination.
  void clear_kill() { ctx_->kill_flag()->store(false); }
  [[nodiscard]] std::shared_ptr<std::atomic<bool>> kill_flag() const {
    return ctx_->kill_flag();
  }

  // Real time spent constructing the context (paper: ~1.5 ms), for the cost
  // model's calibration.
  [[nodiscard]] double creation_seconds() const { return creation_seconds_; }

 private:
  std::unique_ptr<js::context> ctx_;
  // Bare context for compiled decision-tree matching, created on first use.
  // Separate from ctx_ so matcher fuel/heap never count against the script's
  // budgets (or the resource manager's view of the pipeline).
  std::unique_ptr<js::context> matcher_ctx_;
  exec_binding_ptr binding_;
  policy_sink_ptr sink_;
  chunk_cache* chunk_cache_ = nullptr;  // non-owning; the node outlives pools
  std::unordered_map<std::string, loaded_stage> stages_;
  double creation_seconds_ = 0.0;
};

// Per-site pool of reusable sandboxes. Single-owner (no locking): every
// core::worker_context is one (the node's caller thread and each pool worker) —
// the paper's context-reuse optimization without cross-thread sharing of
// scripting state. Poisoned (killed/corrupted) contexts are discarded;
// healthy ones return with their kill flag rearmed.
class sandbox_pool {
 public:
  // Pops a pooled sandbox for `site` or creates one; `created` reports which
  // happened so the caller can charge the matching cost-model amount.
  [[nodiscard]] sandbox* acquire(const std::string& site, const js::context_limits& limits,
                                 chunk_cache* chunks, bool* created = nullptr);
  void release(const std::string& site, sandbox* sb, bool poisoned);

  // Relaxed atomic: the pool itself is single-owner, but aggregate
  // introspection (nakika_node::sandboxes_created) reads counters of
  // worker-owned pools from other threads.
  [[nodiscard]] std::size_t created() const {
    return created_.load(std::memory_order_relaxed);
  }

 private:
  std::map<std::string, std::vector<std::unique_ptr<sandbox>>> pools_;
  std::atomic<std::size_t> created_{0};
};

}  // namespace nakika::core
