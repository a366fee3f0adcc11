// Differential testing of the two script engines: every program in a curated
// corpus plus a deterministic generated corpus runs through the tree-walking
// interpreter (reference oracle) and the bytecode VM, asserting identical
// results and side-effects. Also proves the VM's fuel metering enforces the
// same resource limits the tree-walker did (ops budget, kill flag, heap, call
// depth), and that the compiled-chunk cache shares work across sandboxes.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/sandbox.hpp"
#include "js/compiler.hpp"
#include "js/interpreter.hpp"
#include "js/parser.hpp"
#include "js/vm.hpp"

namespace nakika::js {
namespace {

struct eval_outcome {
  bool threw = false;
  script_error_kind error_kind = script_error_kind::runtime;
  std::string error_what;
  std::string result;  // global `result` stringified
  std::string trace;   // global `trace` stringified (side-effect log)
};

eval_outcome run_engine(const std::string& source, engine_kind engine,
                        context_limits limits = {}) {
  eval_outcome out;
  context ctx(limits);
  try {
    eval_script(ctx, source, "<diff>", engine);
  } catch (const script_error& e) {
    out.threw = true;
    out.error_kind = e.kind();
    out.error_what = e.what();
  }
  // Globals are read even after a throw: side effects up to the failure
  // point must match across engines too.
  out.result = ctx.global()->get("result").to_string();
  out.trace = ctx.global()->get("trace").to_string();
  return out;
}

// Runs `source` under both engines and asserts equivalent observable
// behavior: same result/trace globals, or same error kind.
void expect_equivalent(const std::string& source, context_limits limits = {}) {
  const eval_outcome tree = run_engine(source, engine_kind::tree_walker, limits);
  const eval_outcome vm = run_engine(source, engine_kind::bytecode, limits);
  ASSERT_EQ(tree.threw, vm.threw)
      << "one engine threw for:\n"
      << source << "\ntree: " << (tree.threw ? tree.error_what : tree.result)
      << "\nvm:   " << (vm.threw ? vm.error_what : vm.result);
  if (tree.threw) {
    EXPECT_EQ(to_string(tree.error_kind), to_string(vm.error_kind)) << source;
  } else {
    EXPECT_EQ(tree.result, vm.result) << source;
  }
  EXPECT_EQ(tree.trace, vm.trace) << source;
}

// ----- curated corpus: control flow, closures, exceptions ----------------------

TEST(Differential, ClosureCorpus) {
  expect_equivalent(R"JS(
    function make(start) {
      var n = start;
      return { inc: function() { n++; return n; },
               dec: function() { n--; return n; } };
    }
    var a = make(10); var b = make(100);
    a.inc(); a.inc(); b.dec();
    result = '' + a.inc() + ':' + b.dec() + ':' + a.dec();
  )JS");
  expect_equivalent(R"JS(
    var fs = [];
    for (var i = 0; i < 3; i++) {
      var x = i * 10;
      fs.push(function() { return x + i; });
    }
    result = '' + fs[0]() + ',' + fs[1]() + ',' + fs[2]();
  )JS");
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NAKIKA_TEST_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define NAKIKA_TEST_ASAN 1
#endif
#ifndef NAKIKA_TEST_ASAN
  // Known pre-existing tree-walker limitation: a function DECLARED in a local
  // scope is stored in the same environment its closure captures, creating an
  // env<->closure shared_ptr cycle that LeakSanitizer reports. The VM's
  // cell-based closures do not cycle here. Differential coverage for local
  // function declarations runs in non-ASan builds only.
  expect_equivalent(R"JS(
    function outer() {
      var total = 0;
      function add(n) { total += n; }
      add(1); add(2); add(3);
      return total;
    }
    result = outer();
  )JS");
#endif
  expect_equivalent(R"JS(
    function counterChain() {
      var a = 1;
      return function() {
        var b = 2;
        return function() { return a + b; };
      };
    }
    result = counterChain()()();
  )JS");
  // Forward references: a closure created BEFORE the var it captures is
  // declared must still bind that local once the declaration runs (caught by
  // review: the compiler originally resolved these to globals). The closures
  // are published through globals — as stage scripts publish handlers — which
  // also sidesteps the pre-existing tree-walker env<->closure leak cycle.
  expect_equivalent(R"JS(
    function outer() { pub = function() { return x; }; var x = 5; return pub(); }
    result = outer();
  )JS");
  expect_equivalent(R"JS(
    function outer() { pub = function() { x = 9; }; var x = 1; pub(); return x; }
    result = outer() + typeof x;
  )JS");
  expect_equivalent(R"JS(
    fs = [];
    function outer() {
      for (var i = 0; i < 3; i++) {
        fs.push(function() { return seen; });
        var seen = i * 11;
      }
    }
    outer();
    result = fs[0]() + ',' + fs[1]() + ',' + fs[2]();
  )JS");
}

TEST(Differential, ExceptionCorpus) {
  expect_equivalent(R"JS(
    trace = '';
    function risky(n) {
      try {
        if (n > 1) throw 'big';
        trace += 'ok' + n;
        return n;
      } finally {
        trace += 'f' + n;
      }
    }
    var got = '';
    try { got += risky(0); got += risky(2); } catch (e) { got += 'c:' + e; }
    result = got;
  )JS");
  expect_equivalent(R"JS(
    trace = '';
    for (var i = 0; i < 4; i++) {
      try {
        if (i == 1) continue;
        if (i == 3) break;
        trace += 'b' + i;
      } finally {
        trace += 'f' + i;
      }
    }
    result = trace;
  )JS");
  expect_equivalent(R"JS(
    function f() {
      try { return 'tried'; } finally { trace = 'fin-ran'; }
    }
    result = f();
  )JS");
  expect_equivalent(R"JS(
    function f() {
      for (var i = 0; i < 3; i++) {
        try { return 'first'; } finally { break; }
      }
      return 'after-break:' + i;
    }
    result = f();
  )JS");
  expect_equivalent(R"JS(
    trace = '';
    try {
      try { throw 'inner'; } catch (e) { trace += 'c1:' + e; throw 'rethrown'; }
    } catch (e2) { trace += '|c2:' + e2; }
    result = trace;
  )JS");
  expect_equivalent("try { null.x; } catch (e) { result = 'engine errors pass'; }");
  // `new` must reject a non-function BEFORE evaluating arguments (caught by
  // review: the VM originally evaluated args first).
  expect_equivalent("trace = 0; try { new 5(trace = 1); } catch (e) {} result = trace;");
  expect_equivalent("throw {code: 42};");
  expect_equivalent(R"JS(
    var depth = 0;
    function rec(n) { depth = n; if (n > 0) rec(n - 1); }
    try { rec(5000); } catch (e) { }
    result = 'done';
  )JS");
}

TEST(Differential, StatementCorpus) {
  expect_equivalent(R"JS(
    var s = 0;
    for (var i = 0; i < 5; i++) {
      for (var j = 0; j < 5; j++) {
        if (j > i) continue;
        if (i * j > 6) break;
        s += i * 10 + j;
      }
    }
    result = s;
  )JS");
  expect_equivalent(R"JS(
    var words = [];
    var o = {x: 1, y: 2, z: 3};
    o.y = undefined; delete o.z;
    for (var k in o) words.push(k + '=' + o[k]);
    var arr = ['a', 'b'];
    for (var idx in arr) words.push(idx);
    result = words.join('|');
  )JS");
  expect_equivalent(R"JS(
    function day(n) {
      var out = '';
      switch (n % 3) {
        case 0: out += 'zero';
        case 1: out += 'one'; break;
        case 2: out += 'two'; break;
        default: out = 'never';
      }
      return out;
    }
    result = day(0) + ',' + day(1) + ',' + day(2) + ',' + day(3);
  )JS");
  expect_equivalent(R"JS(
    var n = 0; var seen = '';
    do { seen += n; n++; } while (n < 4);
    while (n > 0) { n -= 2; seen += '.' + n; }
    result = seen;
  )JS");
  expect_equivalent(R"JS(
    var x = 5;
    { var x = 7; result = x; }
    result = result * 10 + x;
  )JS");
}

TEST(Differential, ExpressionCorpus) {
  expect_equivalent(R"JS(
    var a = [1, 2, 3];
    a[1] += 10; a[0] *= 3; a[2] -= 0.5;
    var o = {n: 'x'};
    o.n += '!';
    var i = 0;
    var post = i++; var pre = ++i;
    a[0]++; --a[1];
    result = a.join(',') + '|' + o.n + '|' + post + pre + i;
  )JS");
  expect_equivalent(R"JS(
    var b = new ByteArray('abc');
    b[0] = 65; b[1] += 1;
    result = b.toString() + b.length;
  )JS");
  expect_equivalent(R"JS(
    result = '' + (undefined == null) + (NaN1 = 0/0, NaN1 == NaN1) +
             ('5' * '4') + (true + true) + ('x' || 'y') + (0 && 'z');
  )JS");
  expect_equivalent(R"JS(
    function Vec(x, y) { this.x = x; this.y = y; }
    Vec.prototype.dot = function(o) { return this.x * o.x + this.y * o.y; };
    var v = new Vec(2, 3);
    result = '' + v.dot(new Vec(4, 5)) + (v instanceof Vec) + ('x' in v) + ('z' in v);
  )JS");
  expect_equivalent(R"JS(
    var obj = {f: function() { return typeof this.g; }, g: function() {} };
    var tbl = {}; tbl['k' + 1] = obj;
    result = tbl['k1'].f() + typeof missingThing + (typeof obj.f);
  )JS");
  expect_equivalent(R"JS(
    var calls = '';
    function t(label, v) { calls += label; return v; }
    var r = t('a', false) && t('b', true);
    r = t('c', 1) || t('d', 2);
    r = t('e', 0) ? t('f', 1) : t('g', 2);
    result = calls;
  )JS");
  expect_equivalent(R"JS(
    var s = 'hello world';
    result = s.split(' ').map; // undefined member access on natives
    result = '' + s.toUpperCase() + s.indexOf('o', 5) + s.slice(-3) + s[1];
  )JS");
  expect_equivalent(R"JS(
    var sorted = [5, 1, 4, 2, 3].sort(function(a, b) { return b - a; });
    result = sorted.join('') + JSON.stringify({k: [1, null, 'two']});
  )JS");
  expect_equivalent("var a = []; a[5] = 1; result = '' + a.length + a[3];");
  expect_equivalent("result = (function(a, b) { return arguments.length + '/' + a; })(7, 8, 9);");
}

// ----- generated corpus --------------------------------------------------------
//
// A deterministic program generator: seeded LCG, bounded loops, arithmetic on
// a fixed pool of variables, nested conditionals, small functions and
// closures. Termination is guaranteed by construction (loops have constant
// trip counts), so every generated program must produce identical output on
// both engines.

class gen {
 public:
  explicit gen(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }
  std::uint64_t next(std::uint64_t bound) { return next() % bound; }

  std::string var() { return std::string(1, static_cast<char>('a' + next(4))); }

  std::string expr(int depth) {
    switch (next(depth <= 0 ? 3 : 7)) {
      case 0: return std::to_string(next(100));
      case 1: return var();
      case 2: return "'s" + std::to_string(next(10)) + "'";
      case 3: return "(" + expr(depth - 1) + " " + binop() + " " + expr(depth - 1) + ")";
      case 4: return "(" + expr(depth - 1) + " ? " + expr(depth - 1) + " : " +
                     expr(depth - 1) + ")";
      case 5: return "f" + std::to_string(next(2)) + "(" + expr(depth - 1) + ")";
      default: return "(-" + std::to_string(next(50)) + " + " + var() + ")";
    }
  }

  std::string binop() {
    static const char* ops[] = {"+", "-", "*", "%", "<", ">", "==", "!=", "&", "|", "^"};
    return ops[next(sizeof(ops) / sizeof(ops[0]))];
  }

  std::string stmt(int depth) {
    switch (next(depth <= 0 ? 2 : 7)) {
      case 0: return var() + " = " + expr(2) + ";\n";
      case 1: return "trace += '' + (" + expr(2) + ");\n";
      case 2: {
        const std::string v = var();
        return "if (" + expr(1) + ") { " + stmt(depth - 1) + " } else { " + v + " = " +
               expr(1) + "; }\n";
      }
      case 3: {
        const std::string body = stmt(depth - 1) + stmt(depth - 1);
        return "for (var q = 0; q < " + std::to_string(1 + next(4)) + "; q++) { " + body +
               " }\n";
      }
      case 4: return var() + " += " + expr(1) + ";\n";
      case 5: {
        // Closure created before the var it captures is declared (the
        // forward-reference class the compiler must bind via cells). Stored
        // in a global, not a captured local, to avoid the pre-existing
        // tree-walker env<->closure cycle. NOTE: the closure must only be
        // CALLED after the `var` executes, and the name must not be touched
        // before its declaration — accesses above the declaration of a
        // captured name are a documented engine divergence (see README).
        return "{ hh = function() { return w + " + var() + "; }; var w = " + expr(1) +
               "; trace += '#' + hh(); }\n";
      }
      default: {
        return "try { if (" + expr(1) + ") throw " + expr(1) + "; " + stmt(depth - 1) +
               " } catch (e) { trace += '!' + e; } finally { trace += '.'; }\n";
      }
    }
  }

  std::string program() {
    std::string src = "var a = 1; var b = 2; var c = 'x'; var d = 0; trace = '';\n";
    src += "function f0(n) { return (n | 0) % 7; }\n";
    src += "function f1(n) { var k = 3; return function(m) { return k + (m | 0); }(n); }\n";
    const std::uint64_t statements = 3 + next(5);
    for (std::uint64_t i = 0; i < statements; ++i) src += stmt(2);
    src += "result = '' + a + '|' + b + '|' + c + '|' + d;\n";
    return src;
  }

 private:
  std::uint64_t state_;
};

TEST(Differential, GeneratedCorpus) {
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    gen g(seed * 2654435761ULL);
    const std::string src = g.program();
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_equivalent(src);
  }
}

// ----- fuel metering: the VM enforces the sandbox limits -----------------------

// ----- inline-cache invalidation ----------------------------------------------
//
// The VM's monomorphic caches short-circuit global and property lookups after
// the first access through a site. Every test here re-executes a site AFTER a
// structural change (delete, shadowing store, global redefinition) and
// asserts the cached path still agrees with the uncached tree-walker — i.e.
// the shape-generation / global-generation invalidation actually fires.

TEST(InlineCache, PropertyDeletionInvalidates) {
  expect_equivalent(R"JS(
    var o = {a: 1, b: 2, c: 3};
    function readB() { return o.b; }
    var before = 0;
    for (var i = 0; i < 50; i++) before += readB();  // cache o.b
    delete o.a;                                      // shifts b's index
    var after = 0;
    for (var j = 0; j < 50; j++) after += readB();
    delete o.b;                                      // b now comes from nowhere
    var gone = o.b === undefined;
    result = before + ':' + after + ':' + gone;
  )JS");
}

TEST(InlineCache, PrototypeShadowingInvalidates) {
  expect_equivalent(R"JS(
    function C() {}
    C.prototype.x = 'proto';
    var o = new C();
    function readX() { return o.x; }
    var first = readX();   // prototype hit (uncacheable)
    for (var i = 0; i < 20; i++) readX();
    o.x = 'own';           // shadowing own store changes the shape
    var second = readX();  // must see the own property now
    delete o.x;            // un-shadow: back to the prototype
    var third = readX();
    result = first + ':' + second + ':' + third;
  )JS");
}

TEST(InlineCache, GlobalRedefinitionInvalidates) {
  expect_equivalent(R"JS(
    var mode = 'a';
    function f() { return 1; }
    function probe() { return mode + f(); }
    var out = '';
    for (var i = 0; i < 30; i++) out = probe();  // cache the globals
    mode = 'b';                                  // in-place write (no reshape)
    out += probe();
    f = function() { return 2; };                // redefinition through the cache
    out += probe();
    shadow = 'new-global';                       // inserting a global reshapes
    out += probe() + shadow;
    result = out;
  )JS");
}

TEST(InlineCache, SetThroughCacheAfterReshape) {
  expect_equivalent(R"JS(
    var o = {n: 0, pad: 1};
    function bump() { o.n = o.n + 1; return o.n; }
    for (var i = 0; i < 25; i++) bump();  // cache the o.n set site
    delete o.pad;                         // reshape shifts n
    for (var j = 0; j < 25; j++) bump();
    o.extra = 'x';                        // reshape by insertion
    for (var k = 0; k < 25; k++) bump();
    result = o.n + ':' + o.extra;
  )JS");
}

TEST(InlineCache, DynamicIndexMethodKeyChanges) {
  expect_equivalent(R"JS(
    var dispatch = {
      inc: function(v) { return v + 1; },
      dec: function(v) { return v - 1; }
    };
    var total = 0;
    for (var i = 0; i < 40; i++) {
      var op = (i % 2 === 0) ? 'inc' : 'dec';
      total = dispatch[op](total) + (i % 3);
    }
    result = total;
  )JS");
}

TEST(InlineCache, PerContextIsolation) {
  // One chunk, two contexts: caches filled in the first context must not
  // leak results into the second (the side table is per-context).
  const program_ptr prog = parse_program(
      "result = '' + answer + ':' + obj.tag;", "<shared>");
  const compiled_program_ptr chunk = compile_program(prog);

  context a;
  eval_script(a, "var answer = 1; var obj = {pad: 0, tag: 'A'};", "<seed-a>",
              engine_kind::bytecode);
  run_program(a, chunk);
  run_program(a, chunk);  // second run goes through warm caches
  EXPECT_EQ(a.global()->get("result").to_string(), "1:A");

  context b;
  eval_script(b, "var pad2 = 0; var answer = 2; var obj = {tag: 'B'};", "<seed-b>",
              engine_kind::bytecode);
  run_program(b, chunk);
  EXPECT_EQ(b.global()->get("result").to_string(), "2:B");
  EXPECT_EQ(a.global()->get("result").to_string(), "1:A");
}

TEST(InlineCache, CountersReportHitsAndMisses) {
  context ctx;
  eval_script(ctx,
              "var state = {n: 0}; for (var i = 0; i < 100; i++) state.n = state.n + 1; "
              "result = state.n;",
              "<counters>", engine_kind::bytecode);
  EXPECT_EQ(ctx.global()->get("result").to_string(), "100");
  EXPECT_GT(ctx.ic_hits(), 100u);  // the loop's global + property sites stay hot
  EXPECT_GT(ctx.ic_misses(), 0u);  // first touch of every site misses
  ctx.reset_for_reuse();
  EXPECT_EQ(ctx.ic_hits(), 0u);
  EXPECT_EQ(ctx.ic_misses(), 0u);
}

// Frame-arena regression: deep recursion followed by shallow calls must reuse
// pooled frames without leaking values between calls.
TEST(FrameArena, RecursionReusesFramesCleanly) {
  context ctx;
  eval_script(ctx,
              "function down(n) { var local = 'x' + n; "
              "  return n === 0 ? 0 : local.length + down(n - 1); } "
              "var deep = down(150); var shallow = down(3); "
              "result = deep + ':' + shallow;",
              "<arena>", engine_kind::bytecode);
  const std::string deep_then_shallow = ctx.global()->get("result").to_string();
  context ctx2;
  eval_script(ctx2,
              "function down(n) { var local = 'x' + n; "
              "  return n === 0 ? 0 : local.length + down(n - 1); } "
              "var shallow = down(3); var deep = down(150); "
              "result = deep + ':' + shallow;",
              "<arena>", engine_kind::bytecode);
  EXPECT_EQ(deep_then_shallow, ctx2.global()->get("result").to_string());
}

TEST(Fuel, VmKillsRunawayLoopAtOpsBudget) {
  context_limits limits;
  limits.ops = 100000;
  for (const engine_kind engine : {engine_kind::tree_walker, engine_kind::bytecode}) {
    const eval_outcome out = run_engine("while (true) {}", engine, limits);
    ASSERT_TRUE(out.threw) << to_string(engine);
    EXPECT_EQ(to_string(out.error_kind), to_string(script_error_kind::ops_budget))
        << to_string(engine);
  }
}

TEST(Fuel, VmKillsRunawayLoopInsideCalls) {
  // The runaway loop spins inside a called function: fuel must flow through
  // frames, not just the top-level chunk.
  context_limits limits;
  limits.ops = 100000;
  const char* src = "function spin() { var i = 0; while (true) { i++; } } spin();";
  for (const engine_kind engine : {engine_kind::tree_walker, engine_kind::bytecode}) {
    const eval_outcome out = run_engine(src, engine, limits);
    ASSERT_TRUE(out.threw) << to_string(engine);
    EXPECT_EQ(to_string(out.error_kind), to_string(script_error_kind::ops_budget))
        << to_string(engine);
  }
}

TEST(Fuel, VmOpsBudgetNotCatchableByScript) {
  context_limits limits;
  limits.ops = 50000;
  const char* src = "try { while (true) {} } catch (e) { result = 'swallowed'; }";
  for (const engine_kind engine : {engine_kind::tree_walker, engine_kind::bytecode}) {
    const eval_outcome out = run_engine(src, engine, limits);
    ASSERT_TRUE(out.threw) << to_string(engine);
    EXPECT_EQ(to_string(out.error_kind), to_string(script_error_kind::ops_budget))
        << to_string(engine);
  }
}

TEST(Fuel, KillFlagStopsVmAtBackEdge) {
  context ctx;
  ctx.kill_flag()->store(true);
  try {
    eval_script(ctx, "var i = 0; for (;;) { i = i + 1; }", "<kill>", engine_kind::bytecode);
    FAIL() << "expected termination";
  } catch (const script_error& e) {
    EXPECT_EQ(e.kind(), script_error_kind::terminated);
  }
}

TEST(Fuel, HeapLimitParity) {
  context_limits limits;
  limits.heap_bytes = 1 * 1024 * 1024;
  const char* src = "var s = 'y'; while (true) { s = s + s; }";
  for (const engine_kind engine : {engine_kind::tree_walker, engine_kind::bytecode}) {
    const eval_outcome out = run_engine(src, engine, limits);
    ASSERT_TRUE(out.threw) << to_string(engine);
    EXPECT_EQ(to_string(out.error_kind), to_string(script_error_kind::out_of_memory))
        << to_string(engine);
  }
}

TEST(Fuel, CallDepthParity) {
  context_limits limits;
  limits.call_depth = 40;
  const char* src = "function f() { return f(); } f();";
  for (const engine_kind engine : {engine_kind::tree_walker, engine_kind::bytecode}) {
    const eval_outcome out = run_engine(src, engine, limits);
    ASSERT_TRUE(out.threw) << to_string(engine);
    EXPECT_EQ(to_string(out.error_kind), to_string(script_error_kind::runtime))
        << to_string(engine);
  }
}

TEST(Fuel, VmChargesOpsProportionalToWork) {
  context ctx;
  eval_script(ctx, "var x = 0; for (var i = 0; i < 1000; i++) x += i;", "<fuel>",
              engine_kind::bytecode);
  const std::uint64_t thousand_iters = ctx.ops_used();
  EXPECT_GT(thousand_iters, 1000u);

  context ctx2;
  eval_script(ctx2, "var x = 0; for (var i = 0; i < 10000; i++) x += i;", "<fuel>",
              engine_kind::bytecode);
  EXPECT_GT(ctx2.ops_used(), 5 * thousand_iters);
}

// Pins the VM's (intentionally) divergent behavior for accesses to a captured
// name ABOVE its `var` statement — the documented trade-off of binding
// forward-referenced captures at block entry (see README "Compile-time
// resolution note"). These are VM-only assertions, not differential ones: the
// tree-walker raises "not defined" / creates a global here.
TEST(Differential, DocumentedEarlyAccessDivergence) {
  {
    context ctx;
    eval_script(ctx,
                "function o() { pub = function() { return x; }; var early = pub(); "
                "var x = 5; return '' + early + ':' + pub(); } result = o();",
                "<pin>", engine_kind::bytecode);
    EXPECT_EQ(ctx.global()->get("result").to_string(), "undefined:5");
  }
  {
    context ctx;
    eval_script(ctx,
                "function o() { pub = function() { return x; }; x = 7; var x = 1; "
                "return pub(); } result = '' + o() + typeof x;",
                "<pin>", engine_kind::bytecode);
    // The early write lands in the pre-declared cell (overwritten by the
    // declaration), not in a global.
    EXPECT_EQ(ctx.global()->get("result").to_string(), "1undefined");
  }
}

// ----- cross-engine interop ----------------------------------------------------

TEST(Interop, TreeWalkerCallsVmCompiledFunction) {
  context ctx;
  eval_script(ctx, "handler = function(n) { return n * 2 + 1; };", "<vm>",
              engine_kind::bytecode);
  interpreter in(ctx);
  const value fn = ctx.global()->get("handler");
  const value out = in.call(fn, value::undefined(), {value::number(20)});
  EXPECT_DOUBLE_EQ(out.to_number(), 41);
}

TEST(Interop, VmCallsTreeWalkerCompiledFunction) {
  context ctx;
  eval_script(ctx, "astFn = function(n) { return n + 'ast'; };", "<tree>",
              engine_kind::tree_walker);
  eval_script(ctx, "result = astFn('via-vm-');", "<vm>", engine_kind::bytecode);
  EXPECT_EQ(ctx.global()->get("result").to_string(), "via-vm-ast");
}

TEST(Interop, VmClosuresSurviveAcrossRuns) {
  // Handlers registered by one run stay callable later (how stages publish
  // onRequest/onResponse handlers that pipelines call long after load).
  context ctx;
  eval_script(ctx, "var hits = 0; onHit = function() { hits++; return hits; };", "<a>",
              engine_kind::bytecode);
  interpreter in(ctx);
  const value fn = ctx.global()->get("onHit");
  in.call(fn, value::undefined(), {});
  in.call(fn, value::undefined(), {});
  const value out = in.call(fn, value::undefined(), {});
  EXPECT_DOUBLE_EQ(out.to_number(), 3);
}

// ----- compiled-chunk sharing --------------------------------------------------

TEST(ChunkCache, SharedAcrossSandboxes) {
  core::chunk_cache chunks(16);
  const std::string source = "counter = 0; onRequest = function() { counter++; };";

  core::sandbox sb1;
  sb1.set_chunk_cache(&chunks);
  core::stage_load_stats stats1;
  sb1.load_stage("http://site-a/nakika.js", source, 1, &stats1);
  EXPECT_FALSE(stats1.chunk_cache_hit);
  EXPECT_GT(stats1.parse_seconds + stats1.compile_seconds, 0.0);

  // A different sandbox, different URL, same content: compile is skipped.
  core::sandbox sb2;
  sb2.set_chunk_cache(&chunks);
  core::stage_load_stats stats2;
  sb2.load_stage("http://site-b/nakika.js", source, 7, &stats2);
  EXPECT_TRUE(stats2.chunk_cache_hit);
  EXPECT_DOUBLE_EQ(stats2.parse_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats2.compile_seconds, 0.0);
  EXPECT_EQ(chunks.hits(), 1u);
  EXPECT_EQ(chunks.misses(), 1u);
}

TEST(ChunkCache, PerSandboxStageCacheStillWins) {
  core::chunk_cache chunks(16);
  core::sandbox sb;
  sb.set_chunk_cache(&chunks);
  core::stage_load_stats stats;
  sb.load_stage("http://s/nakika.js", "x = 1;", 3, &stats);
  EXPECT_FALSE(stats.from_cache);
  core::stage_load_stats again;
  sb.load_stage("http://s/nakika.js", "x = 1;", 3, &again);
  EXPECT_TRUE(again.from_cache);
}

// ----- shapes + polymorphic inline caches --------------------------------------
// The shape layer and the 4-way ICs are pure accelerators: every program here
// must produce identical results with shapes on, shapes off (dictionary mode,
// shape_table_max = 0), and on the tree-walker oracle.

namespace {

// Source of a handler that streams `nlayouts` distinct object layouts through
// one hot access site (.v is at a different property index per layout).
std::string poly_site_source(int nlayouts, int nobjects, int rounds) {
  std::string src = "var make = [];\n";
  for (int l = 0; l < nlayouts; ++l) {
    src += "make.push(function(i) { return {";
    for (int p = 0; p < l; ++p) {
      src += "pad" + std::to_string(p) + ": " + std::to_string(p) + ", ";
    }
    src += "v: i, tag: " + std::to_string(l) + "}; });\n";
  }
  src += "var objs = [];\n";
  // `var mk = ...; mk(i)` rather than `make[...](i)`: direct calls of an
  // indexed element are not part of the dialect (both engines reject them).
  src += "for (var i = 0; i < " + std::to_string(nobjects) + "; i++) { var mk = make[i % " +
         std::to_string(nlayouts) + "]; objs.push(mk(i)); }\n";
  src += "var total = 0;\n";
  src += "for (var r = 0; r < " + std::to_string(rounds) + "; r++) {\n";
  src += "  for (var j = 0; j < objs.length; j++) {\n";
  src += "    var o = objs[j];\n";
  src += "    total = total + o.v + o.tag;\n";
  src += "    o.v = o.v + 1;\n";
  src += "  }\n";
  src += "}\n";
  src += "result = total;\n";
  return src;
}

// Runs `source` on the bytecode VM and returns the context's IC counters.
struct ic_run_stats {
  std::uint64_t mono = 0;
  std::uint64_t poly = 0;
  std::uint64_t mega = 0;
  std::uint64_t misses = 0;
  std::string result;
};

ic_run_stats run_vm_ic_stats(const std::string& source, context_limits limits = {}) {
  ic_run_stats out;
  context ctx(limits);
  eval_script(ctx, source, "<ic-stats>", engine_kind::bytecode);
  out.mono = ctx.ic_mono_hits();
  out.poly = ctx.ic_poly_hits();
  out.mega = ctx.ic_mega_lookups();
  out.misses = ctx.ic_misses();
  out.result = ctx.global()->get("result").to_string();
  return out;
}

}  // namespace

TEST(ShapePolymorphism, MonoToMegaSitesMatchOracle) {
  // 1 layout = monomorphic, 2 and 4 fit the ways, 6 overflows to megamorphic.
  for (const int layouts : {1, 2, 4, 6}) {
    expect_equivalent(poly_site_source(layouts, 24, 6));
  }
}

TEST(ShapePolymorphism, IcStateMatchesLayoutCount) {
  const ic_run_stats mono = run_vm_ic_stats(poly_site_source(1, 24, 6));
  EXPECT_GT(mono.mono, 0u);
  EXPECT_EQ(mono.mega, 0u);

  const ic_run_stats poly = run_vm_ic_stats(poly_site_source(4, 24, 6));
  EXPECT_GT(poly.poly, 0u);
  EXPECT_EQ(poly.mega, 0u);

  // 6 layouts through one site: the 4 ways overflow and the site goes (and
  // stays) megamorphic.
  const ic_run_stats mega = run_vm_ic_stats(poly_site_source(6, 24, 6));
  EXPECT_GT(mega.mega, 0u);
}

TEST(ShapePolymorphism, DeleteDemotesToDictionaryWithSameResults) {
  expect_equivalent(R"JS(
    var o = {a: 1, b: 2, c: 3};
    var total = 0;
    for (var i = 0; i < 20; i++) {
      total += o.a + o.c;
      if (i == 10) { delete o.b; }   // demotes o to dictionary mode mid-loop
      if (i == 12) { o.d = 4; }      // dictionary-mode append still works
    }
    result = total + ':' + o.d + ':' + (o.b === undefined);
  )JS");
}

TEST(ShapePolymorphism, PrototypeShadowingParity) {
  expect_equivalent(R"JS(
    function C(i) { this.idx = i; }
    C.prototype.kind = 'base';
    var objs = [];
    for (var i = 0; i < 8; i++) objs.push(new C(i));
    var log = '';
    for (var r = 0; r < 4; r++) {
      for (var j = 0; j < objs.length; j++) {
        log += objs[j].kind;
        if (r == 1 && j == 3) { objs[3].kind = 'own'; }  // shadow mid-stream
      }
      log += ';';
    }
    result = log.length + ':' + objs[3].kind + ':' + objs[4].kind;
  )JS");
}

TEST(ShapePolymorphism, DictionaryModeProducesIdenticalResults) {
  // shape_table_max = 0 disables the shape layer entirely; every program must
  // behave identically (the shapes are an accelerator, not semantics).
  context_limits no_shapes;
  no_shapes.shape_table_max = 0;
  for (const int layouts : {1, 3, 6}) {
    const std::string src = poly_site_source(layouts, 16, 4);
    const eval_outcome shaped = run_engine(src, engine_kind::bytecode);
    const eval_outcome dict = run_engine(src, engine_kind::bytecode, no_shapes);
    EXPECT_EQ(shaped.result, dict.result) << src;
    EXPECT_EQ(shaped.trace, dict.trace) << src;
    expect_equivalent(src, no_shapes);
  }
}

TEST(ShapePolymorphism, TinyShapeTableFallsBackGracefully) {
  // A table bound small enough to overflow mid-program: late objects demote
  // to dictionary mode but results stay identical to the oracle.
  context_limits tiny;
  tiny.shape_table_max = 4;
  expect_equivalent(poly_site_source(4, 16, 4), tiny);
  expect_equivalent(R"JS(
    var table = {};
    for (var i = 0; i < 40; i++) table['k' + i] = i;
    var total = 0;
    for (var k in table) total += table[k];
    result = total;
  )JS",
                    tiny);
}

TEST(ShapePolymorphism, GrownObjectDoesNotGoCold) {
  // Appending a property moves the object to a CHILD shape; caches filled at
  // the parent must keep hitting (ancestor promotion), not cold-miss per
  // access. Misses are warmup-only, so they must not scale with iterations:
  // a per-access miss after the growth would add ~iters/2 misses.
  const auto grown_src = [](int iters) {
    return "var o = {a: 1};\n"
           "var total = 0;\n"
           "for (var i = 0; i < " +
           std::to_string(iters) +
           "; i++) {\n"
           "  total += o.a;\n"
           "  if (i == 5) { o.grown = 7; }\n"
           "}\n"
           "result = total;\n";
  };
  const ic_run_stats short_run = run_vm_ic_stats(grown_src(40));
  const ic_run_stats long_run = run_vm_ic_stats(grown_src(400));
  EXPECT_EQ(short_run.misses, long_run.misses)
      << "IC misses scaled with iteration count: the grown object's accesses "
         "are cold-missing instead of riding ancestor promotion";
  EXPECT_GT(long_run.mono + long_run.poly, 390u);
  expect_equivalent(grown_src(40));
}

TEST(ShapePolymorphism, DeterministicFuzzAgainstOracle) {
  // Deterministic generator (fixed LCG): random-ish mixes of layout count,
  // object count, deletes, and growth, every one checked against the tree
  // oracle. No wall-clock or real randomness — failures reproduce exactly.
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  const auto next = [&seed]() {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(seed >> 33);
  };
  for (int round = 0; round < 10; ++round) {
    const int layouts = 1 + static_cast<int>(next() % 6);
    const int objects = 4 + static_cast<int>(next() % 20);
    const int rounds = 2 + static_cast<int>(next() % 4);
    std::string src = poly_site_source(layouts, objects, rounds);
    if (next() % 2 == 0) {
      src += "delete objs[0].v; objs[0].v = -1;\n";
      src += "var extra = 0;\n"
             "for (var q = 0; q < objs.length; q++) extra += objs[q].v;\n"
             "result = result + ':' + extra;\n";
    }
    expect_equivalent(src);
  }
}

TEST(ShapePolymorphism, SharedChunkAcrossThreads) {
  // One immutable compiled chunk, eight workers each with a private context
  // (own shape table, own ICs): results must agree and no worker may observe
  // another's shapes. Run under TSan in the sanitizer matrix.
  const std::string src = poly_site_source(3, 24, 4);
  const program_ptr prog = parse_program(src, "<shared>");
  const compiled_program_ptr chunk = compile_program(prog);
  std::vector<std::string> results(8);
  std::vector<std::thread> workers;
  workers.reserve(results.size());
  for (std::size_t w = 0; w < results.size(); ++w) {
    workers.emplace_back([&, w] {
      context ctx{context_limits{}};
      run_program(ctx, chunk);
      results[w] = ctx.global()->get("result").to_string();
    });
  }
  for (auto& t : workers) t.join();
  const eval_outcome oracle = run_engine(src, engine_kind::tree_walker);
  for (const std::string& r : results) EXPECT_EQ(r, oracle.result);
}

}  // namespace
}  // namespace nakika::js
