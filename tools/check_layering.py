#!/usr/bin/env python3
"""Include-graph layering lint.

Machine-enforces the architecture documented in docs/ARCHITECTURE.md:

  * ``util/`` depends on nothing above it.
  * ``xml/`` sits on util only.
  * ``gen/`` (the XMark document generator) sits on util only.
  * ``query/`` (plan -> optimizer -> exec DAG) sits on util + xml and
    never reaches down into concrete stores.
  * ``store/`` implements the ``query/storage.h`` interface without
    reaching into any other ``query/`` internals.
  * ``xmark/`` (engine / benchmark harness) is the top and may use
    everything.

plus repo-wide source contracts:

  * No raw ``std::mutex`` / ``std::condition_variable`` / ``<mutex>``
    outside ``src/util`` — all locking goes through the annotated
    ``util::Mutex`` wrappers (util/mutex.h) so Clang's
    ``-Wthread-safety`` analysis covers every critical section.
  * Any file declaring a ``util::Mutex`` member must include
    ``util/thread_annotations.h`` (directly or via util/mutex.h), i.e.
    the GUARDED_BY vocabulary is always in scope where locks live.
  * Compiled state shared across threads is immutable after compile: no
    ``const_cast`` anywhere in ``src/``, and no ``mutable`` member in the
    AST or plan headers (``query/ast.h``, ``query/plan.h``) — a parsed
    module and its plan annotations serve many threads and stores at once.
  * Child scans have one home: inside ``src/query/`` only ``exec.cc``
    (``NodeScan`` and the child-path kernel) calls ``OpenChildCursor(``,
    so no private child walker grows back beside the kernel.
  * Stores navigate only through their own cursors: nothing in
    ``src/query/`` calls ``FirstChild(`` or ``NextSibling(``, so stored
    nodes are read through the child and descendant cursors
    (``VisitSubtree``, ``AppendStringValue``) and no sibling-chain walk
    grows back into the interface, the serializer or the evaluator.
  * A query runs on the thread that calls it: nothing in ``src/query/``
    includes ``util/thread_pool.h`` or names ``ThreadPool``. The engine's
    ``collection()`` fan-out (``src/xmark/``) is the one place a query
    forks.
  * One process pool: nothing in ``src/`` constructs a ``ThreadPool``
    (a named local, ``make_unique``/``make_shared`` or ``new``) except
    ``ThreadPool::Shared()`` in ``util/thread_pool.cc``, so no private
    pool grows back beside the shared one.
  * One place classifies XML bytes: the SAX tokenizer and the chunked
    parse's split scan (``xml/sax_parser.cc``, ``xml/parallel_parse.cc``)
    call no ``<cctype>`` classifier (``isalpha(``, ``isdigit(``,
    ``isalnum(``, ``isspace(``); they read ``xml/byte_class.h``'s table.
  * One place resolves function calls: the parser (``query/parser.cc``)
    turns every call's name into a builtin id or a prolog-function index
    (``AstNode::builtin``). No other ``src/query/`` file compares a call's
    name (``str_value``, or a variable copied from it) with a string
    literal, so no second resolution with its own rules grows back.

Intra-``query/`` sub-layering (plan -> optimizer -> exec) is also
checked: plan.h must not include optimizer.h/exec.h, optimizer.h must
not include exec.h.

Exit status 0 = clean, 1 = violations (printed one per line), 2 = usage
error. ``--self-test`` runs the checker against a synthetic tree that
contains one violation of every rule and verifies each is caught.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import tempfile

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)

# Layer -> set of layers it may include from (its own layer is always
# allowed). Directories under src/ not named here are an error, so a new
# top-level directory forces an explicit layering decision.
ALLOWED_DEPS = {
    "util": set(),
    "xml": {"util"},
    "gen": {"util"},
    "query": {"util", "xml"},
    # store/ may additionally include exactly query/storage.h — handled
    # as a special case below, not via this table.
    "store": {"util", "xml"},
    "xmark": {"gen", "query", "store", "util", "xml"},
}

# The single query/ header that lower layers may implement against.
STORAGE_INTERFACE = "query/storage.h"
STORAGE_IMPLEMENTORS = {"store"}

# query/ internal sub-layering: header stem -> stems its *header* must not
# include. Headers define the dependency DAG; the .cc files may need
# complete downstream types (plan.cc owns per-run executor state through
# unique_ptr<HashJoinExec> etc., whose destructors require exec.h).
QUERY_SUBLAYER_FORBIDDEN = {
    "plan": {"optimizer", "exec", "evaluator"},
    "optimizer": {"exec", "evaluator"},
}

RAW_MUTEX_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"condition_variable\b|condition_variable_any|lock_guard|unique_lock|"
    r"scoped_lock|shared_lock)"
)
MUTEX_MEMBER_RE = re.compile(r"\butil::Mutex\b|\bMutex\s+\w+_?\s*;")

# Headers whose types are shared, read-only, by every run of a compiled
# query: a `mutable` member there is a cache written under readers.
IMMUTABLE_HEADERS = {"src/query/ast.h", "src/query/plan.h"}

# A call (not the storage.h declaration) of the child-cursor entry point,
# and the one query/ file allowed to make it.
CHILD_CURSOR_CALL_RE = re.compile(r"(\.|->)\s*OpenChildCursor\s*\(")
CHILD_WALKER_HOME = "src/query/exec.cc"

# A call of the per-node sibling-chain navigation, which no query/ file
# may make.
SIBLING_CHAIN_CALL_RE = re.compile(r"\b(FirstChild|NextSibling)\s*\(")

# The thread pool, which the query layer must not reach.
THREAD_POOL_RE = re.compile(r'"util/thread_pool\.h"|\bThreadPool\b')

# Constructing a ThreadPool: a named local (`ThreadPool pool(4);`),
# make_unique/make_shared, or new. The one sanctioned construction is the
# body of ThreadPool::Shared() in its home file, which the check skips.
POOL_CONSTRUCTION_RE = re.compile(
    r"\bThreadPool\s+\w+\s*[({;=]"
    r"|\bmake_(?:unique|shared)\s*<\s*ThreadPool\s*>"
    r"|\bnew\s+ThreadPool\b")
POOL_HOME = "src/util/thread_pool.cc"
SHARED_POOL_DEF_RE = re.compile(r"ThreadPool&\s*ThreadPool::Shared\(\)\s*\{")

# The byte scanners, which classify bytes through xml/byte_class.h only.
BYTE_SCANNERS = {"src/xml/sax_parser.cc", "src/xml/parallel_parse.cc"}
CCTYPE_CALL_RE = re.compile(r"\b(isalpha|isdigit|isalnum|isspace)\s*\(")


# A node's name compared with a string literal, directly ...
CALL_NAME_HOME = "src/query/parser.cc"
STR_VALUE_LITERAL_RE = re.compile(
    r'\bstr_value\s*[!=]=\s*"|"\s*[!=]=\s*[\w.>*-]*\bstr_value\b')
# ... or through a copy: `std::string name = node.str_value;`.
STR_VALUE_COPY_RE = re.compile(r"\b(\w+)\s*[=({]\s*[\w.>*-]*\bstr_value\b")


def compares_call_name(text: str) -> bool:
    """Whether `text` compares str_value, or a variable initialized from
    it, with a string literal (==, != or a StartsWith/EndsWith prefix
    test)."""
    if STR_VALUE_LITERAL_RE.search(text):
        return True
    for name in set(STR_VALUE_COPY_RE.findall(text)):
        if name == "str_value":
            continue
        n = re.escape(name)
        if re.search(rf'\b{n}\s*[!=]=\s*"|"\s*[!=]=\s*{n}\b'
                     rf'|\b(?:StartsWith|EndsWith)\s*\(\s*{n}\s*,\s*"', text):
            return True
    return False


def strip_comments(text: str) -> str:
    """Removes // and /* */ comments (string literals with comment-like
    content are rare enough in this tree not to matter for a lint)."""
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    text = re.sub(r"//[^\n]*", "", text)
    return text


def without_shared_pool_body(text: str) -> str:
    """Drops the body of ThreadPool::Shared() (brace-matched) from the
    pool's home file, the one place a ThreadPool may be constructed."""
    m = SHARED_POOL_DEF_RE.search(text)
    if m is None:
        return text
    depth = 0
    for i in range(m.end() - 1, len(text)):
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        if depth == 0:
            return text[:m.start()] + text[i + 1:]
    return text[:m.start()]


def layer_of(include: str) -> str | None:
    """Maps an #include "a/b.h" path to its top-level layer, or None for
    paths outside src/ (e.g. bench/bench_util.h)."""
    head = include.split("/", 1)[0]
    return head if head in ALLOWED_DEPS else None


def check_tree(root: pathlib.Path) -> list[str]:
    errors: list[str] = []
    src = root / "src"
    if not src.is_dir():
        return [f"{root}: no src/ directory"]

    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(root).as_posix()
        layer = path.relative_to(src).parts[0]
        if layer not in ALLOWED_DEPS:
            errors.append(
                f"{rel}: directory src/{layer}/ has no layering entry in "
                f"tools/check_layering.py — declare its dependencies")
            continue
        raw = path.read_text(encoding="utf-8", errors="replace")
        text = strip_comments(raw)

        # --- include-graph rules -------------------------------------
        for inc in INCLUDE_RE.findall(text):
            inc_layer = layer_of(inc)
            if inc_layer is None:
                # System or third-party header (<...> never matches) or a
                # path outside src/; <>-includes are not captured at all.
                errors.append(
                    f"{rel}: includes \"{inc}\" which is outside the src/ "
                    f"layer graph")
                continue
            if inc_layer == layer:
                continue
            if layer in STORAGE_IMPLEMENTORS and inc_layer == "query":
                if inc != STORAGE_INTERFACE:
                    errors.append(
                        f"{rel}: stores may only implement "
                        f"\"{STORAGE_INTERFACE}\", not reach into \"{inc}\"")
                continue  # storage.h itself is the sanctioned interface
            if inc_layer not in ALLOWED_DEPS[layer]:
                errors.append(
                    f"{rel}: layer '{layer}' must not include \"{inc}\" "
                    f"(allowed: {', '.join(sorted(ALLOWED_DEPS[layer] | {layer}))})")

        # query/ sub-layering: plan below optimizer below exec.
        if layer == "query" and path.suffix == ".h":
            stem = path.stem
            forbidden = QUERY_SUBLAYER_FORBIDDEN.get(stem, set())
            for inc in INCLUDE_RE.findall(text):
                inc_stem = pathlib.PurePosixPath(inc).stem
                if inc.startswith("query/") and inc_stem in forbidden:
                    errors.append(
                        f"{rel}: query sub-layer '{stem}' must not include "
                        f"\"{inc}\" (plan -> optimizer -> exec is one-way)")

        # --- locking contracts ---------------------------------------
        if layer != "util":
            m = RAW_MUTEX_RE.search(text)
            if m:
                errors.append(
                    f"{rel}: raw {m.group(0)} outside src/util — use the "
                    f"annotated util::Mutex / util::MutexLock / util::CondVar "
                    f"(util/mutex.h) so -Wthread-safety sees the lock")
            if re.search(r"#\s*include\s*<(mutex|condition_variable|"
                         r"shared_mutex)>", text):
                errors.append(
                    f"{rel}: includes a raw locking header outside src/util "
                    f"— include \"util/mutex.h\" instead")
            if (re.search(r"\butil::Mutex\b", text)
                    and "util/mutex.h" not in text):
                errors.append(
                    f"{rel}: uses util::Mutex without including "
                    f"\"util/mutex.h\"")

        # --- immutability contracts ----------------------------------
        if re.search(r"\bconst_cast\b", text):
            errors.append(
                f"{rel}: const_cast — compiled state is immutable after "
                f"compile; give the writer a non-const path instead")
        if (layer == "query" and rel != CHILD_WALKER_HOME
                and CHILD_CURSOR_CALL_RE.search(text)):
            errors.append(
                f"{rel}: calls OpenChildCursor outside query/exec.cc — walk "
                f"child chains with the child-path kernel (ChildPathWalker) "
                f"or a NodeScan")
        if layer == "query":
            m = SIBLING_CHAIN_CALL_RE.search(text)
            if m:
                errors.append(
                    f"{rel}: calls {m.group(1)} in query/ — navigate "
                    f"through the store's child and descendant cursors "
                    f"(StorageAdapter::VisitSubtree for a subtree)")
        if layer == "query" and THREAD_POOL_RE.search(text):
            errors.append(
                f"{rel}: thread pool in query/ — a query runs on its "
                f"calling thread; only the engine's collection() fan-out "
                f"forks")
        pooled = without_shared_pool_body(text) if rel == POOL_HOME else text
        for m in POOL_CONSTRUCTION_RE.finditer(pooled):
            errors.append(
                f"{rel}: constructs a ThreadPool ({m.group(0).rstrip('({;= ')}) — "
                f"run parallel work as a ForkJoin on ThreadPool::Shared() "
                f"(ForkJoinShared, ParallelFor), never on a private pool")
        if rel in BYTE_SCANNERS:
            m = CCTYPE_CALL_RE.search(text)
            if m:
                errors.append(
                    f"{rel}: calls {m.group(1)} — classify XML bytes with "
                    f"xml/byte_class.h's table, the one the tokenizer and "
                    f"the split scan share")
        if (layer == "query" and rel != CALL_NAME_HOME
                and compares_call_name(text)):
            errors.append(
                f"{rel}: compares a call's name with a string literal — "
                f"the parser resolves every call once; read "
                f"AstNode::builtin / function_index instead")
        if rel in IMMUTABLE_HEADERS and re.search(r"\bmutable\b", text):
            errors.append(
                f"{rel}: mutable member in a header whose types are shared "
                f"read-only across runs — move the state into the per-run "
                f"QueryPlan or the per-store PlanAnnotations")

    return errors


# ---------------------------------------------------------------------
# Self-test: synthesize a tree with one violation per rule and check the
# lint reports each (and passes a clean twin).
# ---------------------------------------------------------------------

SELF_TEST_BAD = {
    # util reaching up: forbidden.
    "src/util/bad_up.h": '#include "query/plan.h"\n',
    # store reaching into query internals (beyond storage.h): forbidden.
    "src/store/bad_store.cc":
        '#include "query/storage.h"\n#include "query/optimizer.h"\n',
    # query reaching down into a concrete store: forbidden.
    "src/query/bad_query.h": '#include "store/dom_store.h"\n',
    # raw std::mutex outside util: forbidden.
    "src/xmark/bad_lock.cc": "#include <mutex>\nstd::mutex mu;\n",
    # query sub-layering: plan must not include exec.
    "src/query/plan.h": '#include "query/exec.h"\n',
    # unknown directory: must force a layering decision.
    "src/rogue/new_layer.cc": "int x;\n",
    # writing through a const reference: forbidden.
    "src/xmark/bad_cast.cc":
        "void F(const int& x) { const_cast<int&>(x) = 1; }\n",
    # a cache written under concurrent readers of the AST: forbidden.
    "src/query/ast.h": "struct Step { mutable int name_cache = 0; };\n",
    # a private child walker beside the kernel: forbidden.
    "src/query/evaluator.cc":
        "void Walk(const S* s, C* c) { s->OpenChildCursor(0, f, 1, c); }\n",
    # a recursive sibling-chain walk in the serializer: forbidden.
    "src/query/value.cc":
        "void Write(const S& s, H n) {\n"
        "  for (H c = s.FirstChild(n); c != kNone; c = s.NextSibling(c)) {}\n"
        "}\n",
    # a default cursor over the sibling chain in the interface: forbidden.
    "src/query/storage.h":
        '#include "xml/names.h"\n'
        "H Open(H base) const { return FirstChild(base); }\n",
    # a query forking onto the pool: forbidden.
    "src/query/exec.h":
        '#include "util/thread_pool.h"\nvoid Drain(ThreadPool* pool);\n',
    # a locale-aware byte classifier in the tokenizer: forbidden.
    "src/xml/sax_parser.cc":
        "bool IsNameChar(char c) { return std::isalpha(c) || c == '_'; }\n",
    # a call's name matched outside the parser, directly and through a
    # copy: forbidden.
    "src/query/optimizer.cc":
        "bool IsCount(const AstNode& n) { return n.str_value == \"count\"; }\n",
    "src/query/plan.cc":
        "void F(const AstNode& n) {\n"
        "  const std::string_view name = n.str_value;\n"
        "  if (name == \"doc\") {}\n}\n",
    # private pools beside the shared one, in each spelling: forbidden.
    "src/store/bad_pool.cc":
        "void Load() { ThreadPool pool(4); }\n"
        "auto p = std::make_unique<ThreadPool>(2);\n"
        "ThreadPool* q = new ThreadPool(2);\n",
}

SELF_TEST_CLEAN = {
    "src/util/mutex.h": "struct Mutex {};\n",
    "src/xml/names.h": '#include "util/mutex.h"\n',
    # the table lookup, and the word in a comment.
    "src/xml/parallel_parse.cc":
        '#include "xml/byte_class.h"\n'
        "// no isspace( here\nbool S(char c) { return IsSpaceByte(c); }\n",
    # the word in a comment is not a member.
    "src/query/plan.h": "// per-run mutable state lives in QueryPlan\n",
    "src/store/dom_store.h": '#include "query/storage.h"\n',
    "src/xmark/engine.h":
        '#include "store/dom_store.h"\n#include "util/mutex.h"\n'
        '#include "util/thread_pool.h"\n'
        "util::Mutex stats_mu;\nvoid FanOut(ThreadPool& pool);\n",
    # the kernel's home may open child cursors; stores implement the hook.
    "src/query/exec.cc":
        "void Walk(const S* s, C* c) { s->OpenChildCursor(0, f, 1, c); }\n",
    "src/store/edge_store.cc":
        '#include "query/storage.h"\n'
        "void E::OpenChildCursor(H p, F f, N t, C* c) const { Init(c); }\n",
    # the parser resolves call names; elsewhere a name is compared with a
    # variable or printed, never matched against a literal.
    "src/query/parser.cc":
        "bool IsDoc(const AstNode& n) { return n.str_value == \"doc\"; }\n",
    "src/query/optimizer.cc":
        "bool Same(const AstNode& n, const std::string& v) {\n"
        "  const std::string& name = n.str_value;\n"
        "  return name != v && \"$\" + n.str_value != v;\n}\n",
    # the shared pool's own construction, and references to it.
    "src/util/thread_pool.cc":
        "ThreadPool& ThreadPool::Shared() {\n"
        "  static ThreadPool* const pool = new ThreadPool(0);\n"
        "  return *pool;\n}\n"
        "void ForkJoinShared(unsigned t) { ThreadPool& pool = Shared(); }\n",
}

SELF_TEST_EXPECT = [
    "must not include \"query/plan.h\"",
    "not reach into \"query/optimizer.h\"",
    "must not include \"store/dom_store.h\"",
    "raw std::mutex outside src/util",
    "raw locking header outside src/util",
    "plan -> optimizer -> exec is one-way",
    "no layering entry",
    "src/xmark/bad_cast.cc: const_cast",
    "src/query/ast.h: mutable member",
    "src/query/evaluator.cc: calls OpenChildCursor outside query/exec.cc",
    "src/query/value.cc: calls FirstChild in query/",
    "src/query/storage.h: calls FirstChild in query/",
    "src/query/exec.h: thread pool in query/",
    "src/store/bad_pool.cc: constructs a ThreadPool",
    "src/xml/sax_parser.cc: calls isalpha",
    "src/query/optimizer.cc: compares a call's name",
    "src/query/plan.cc: compares a call's name",
]


def write_tree(root: pathlib.Path, files: dict[str, str]) -> None:
    for rel, content in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(content)


def self_test() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        bad = pathlib.Path(tmp) / "bad"
        write_tree(bad, SELF_TEST_BAD)
        errors = check_tree(bad)
        joined = "\n".join(errors)
        missing = [e for e in SELF_TEST_EXPECT if e not in joined]
        if missing:
            print("self-test FAILED: deliberately bad includes not caught:")
            for e in missing:
                print(f"  expected error containing: {e!r}")
            print("checker output was:")
            print(joined or "  (no errors reported)")
            return 1

        clean = pathlib.Path(tmp) / "clean"
        write_tree(clean, SELF_TEST_CLEAN)
        errors = check_tree(clean)
        if errors:
            print("self-test FAILED: clean tree reported errors:")
            for e in errors:
                print(f"  {e}")
            return 1
    print("check_layering self-test OK "
          f"({len(SELF_TEST_EXPECT)} violation classes caught, clean tree "
          "passes)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the checker catches a synthetic tree of "
                         "deliberate violations")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    root = pathlib.Path(args.root).resolve()
    errors = check_tree(root)
    if errors:
        for e in errors:
            print(e)
        print(f"\n{len(errors)} layering violation(s).")
        return 1
    print("layering OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
