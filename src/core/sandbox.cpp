#include "core/sandbox.hpp"

#include "integrity/sha256.hpp"
#include "js/compiler.hpp"
#include "js/parser.hpp"
#include "js/vm.hpp"

namespace nakika::core {

namespace {
double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}
}  // namespace

sandbox::sandbox(js::context_limits limits) {
  const auto start = std::chrono::steady_clock::now();
  ctx_ = std::make_unique<js::context>(limits);
  binding_ = std::make_shared<exec_binding>();
  sink_ = std::make_shared<policy_sink>();
  install_all_vocabularies(*ctx_, binding_, sink_);
  creation_seconds_ = seconds_since(start);
}

const sandbox::loaded_stage* sandbox::find_stage(const std::string& url,
                                                 std::uint64_t version) const {
  const auto it = stages_.find(url);
  if (it == stages_.end() || it->second.version != version) return nullptr;
  return &it->second;
}

const sandbox::loaded_stage& sandbox::load_stage(const std::string& url,
                                                 const std::string& source,
                                                 std::uint64_t version,
                                                 stage_load_stats* stats,
                                                 bool compile_matcher) {
  if (const loaded_stage* cached = find_stage(url, version)) {
    if (stats != nullptr) stats->from_cache = true;
    return *cached;
  }

  // The shared chunk cache comes first: a content-hash hit skips
  // lex/parse/compile entirely, which is what makes warm stage loads cheap
  // across a node's sandbox pools.
  double parse_s = 0.0;
  double compile_s = 0.0;
  bool chunk_hit = false;
  js::compiled_program_ptr chunk;
  std::string content_key;
  if (chunk_cache_ != nullptr) {
    content_key = integrity::sha256_hex(source);
    if (auto cached = chunk_cache_->get(content_key)) {
      chunk = std::move(*cached);
      chunk_hit = true;
    }
  }
  if (!chunk) {
    auto t0 = std::chrono::steady_clock::now();
    const js::program_ptr prog = js::parse_program(source, url);
    parse_s = seconds_since(t0);
    t0 = std::chrono::steady_clock::now();
    chunk = js::compile_program(prog);
    compile_s = seconds_since(t0);
    if (chunk_cache_ != nullptr) chunk_cache_->put(content_key, chunk);
  }

  policy_registry registry;
  sink_->current = &registry;
  auto t0 = std::chrono::steady_clock::now();
  try {
    js::run_program(*ctx_, chunk);
  } catch (...) {
    sink_->current = nullptr;
    throw;
  }
  sink_->current = nullptr;
  const double exec_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  auto tree = std::make_shared<decision_tree>(decision_tree::build(registry.set));

  loaded_stage stage;
  // The tree's predicates are lowered to a chunk the VM evaluates per
  // request too (tree walk kept as oracle and fallback).
  if (compile_matcher) {
    stage.matcher = compiled_matcher::build(*tree);
  }
  const double tree_s = seconds_since(t0);

  stage.tree = std::move(tree);
  stage.version = version;
  stage.policy_count = registry.set.policies.size();
  auto [it, inserted] = stages_.insert_or_assign(url, std::move(stage));
  (void)inserted;

  if (stats != nullptr) {
    stats->parse_seconds = parse_s;
    stats->compile_seconds = compile_s;
    stats->execute_seconds = exec_s;
    stats->tree_seconds = tree_s;
    stats->from_cache = false;
    stats->chunk_cache_hit = chunk_hit;
  }
  return it->second;
}

void sandbox::evict_stage(const std::string& url) { stages_.erase(url); }

match_result sandbox::match_stage(const loaded_stage& stage, const http::request& r) {
  if (stage.matcher) {
    if (!matcher_ctx_) {
      // Unlimited bare context: matching is engine-internal work, not script
      // work, so it carries no budgets and no stdlib.
      js::context_limits limits;
      limits.heap_bytes = 0;
      limits.ops = 0;
      matcher_ctx_ = std::make_unique<js::context>(limits, js::context::bare_t{});
    }
    return stage.matcher->match(*matcher_ctx_, r);
  }
  return stage.tree->match(r);
}

void sandbox::begin_run() { ctx_->reset_for_reuse(); }

void sandbox::trim_vm_arena() { ctx_->vm_frames().trim(4); }

js::gc_cycle_result sandbox::reclaim() {
  js::gc_cycle_result r;
  if (ctx_->gc().dirty()) r = ctx_->gc().collect();
  // The matcher context allocates far less (predicate evaluation), but it is
  // just as pooled — keep it trimmed too. Its time is engine-internal and
  // unbilled, like the matching work itself.
  if (matcher_ctx_ != nullptr && matcher_ctx_->gc().dirty()) matcher_ctx_->gc().collect();
  ctx_->vm_frames().shrink(4);
  return r;
}

// ----- sandbox_pool ------------------------------------------------------------

sandbox* sandbox_pool::acquire(const std::string& site, const js::context_limits& limits,
                               chunk_cache* chunks, bool* created) {
  auto& pool = pools_[site];
  if (!pool.empty()) {
    sandbox* sb = pool.back().release();
    pool.pop_back();
    if (created != nullptr) *created = false;
    return sb;
  }
  created_.fetch_add(1, std::memory_order_relaxed);
  if (created != nullptr) *created = true;
  auto sb = std::make_unique<sandbox>(limits);
  sb->set_chunk_cache(chunks);
  return sb.release();
}

void sandbox_pool::release(const std::string& site, sandbox* sb, bool poisoned) {
  std::unique_ptr<sandbox> owned(sb);
  if (poisoned) return;  // a killed/corrupted context is discarded, not reused
  // A kill that raced in after the pipeline deregistered targeted the
  // finished run; rearm so the next pipeline doesn't inherit it.
  owned->clear_kill();
  // Reclaim on return-to-pool: collect the request's cyclic garbage and
  // shrink the frame arena, so idle pooled sandboxes hold only their live
  // set. A no-op when the node already reclaimed (to bill the GC time).
  owned->reclaim();
  pools_[site].push_back(std::move(owned));
}

}  // namespace nakika::core
