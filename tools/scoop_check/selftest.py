"""Known-good / known-bad corpora for every scoop_check check.

Each case builds a tiny synthetic tree (SourceFiles plus whatever catalog
text the check consumes) and asserts the exact set of check-ids fired.
This pins the token engine's behaviour: a refactor that silently stops a
check from firing fails here before it can wave a real violation through
CI. Run via `python3 tools/scoop_check --self-test`.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common        # noqa: E402
import crosscheck    # noqa: E402
import docpaths      # noqa: E402
import guarded_by    # noqa: E402
import layering      # noqa: E402
import status_audit  # noqa: E402

_FAILURES = []


def _src(path, text):
    return common.make_source(path, text)


def expect(name, findings, *expected_checks, contains=None):
    """Asserts the multiset of fired check ids matches `expected_checks`
    and (optionally) that some finding message contains `contains`."""
    got = sorted(f.check for f in findings)
    want = sorted(expected_checks)
    if got != want:
        _FAILURES.append(
            f"{name}: fired {got or '[]'}, wanted {want or '[]'}\n    "
            + "\n    ".join(f.render() for f in findings))
        return
    if contains is not None and not any(contains in f.message
                                        for f in findings):
        _FAILURES.append(
            f"{name}: no finding message contains {contains!r}\n    "
            + "\n    ".join(f.render() for f in findings))


# --- layering ---------------------------------------------------------------

GOOD_SPEC = "common:\ncsv: common\n"


def test_layering():
    a_h = _src("src/common/a.h", "#ifndef SCOOP_A_H_\nint A();\n#endif\n")
    b_cc = _src("src/csv/b.cc", '#include "common/a.h"\nint B() '
                "{ return A(); }\n")
    expect("layering/good-downward-edge",
           layering.check([a_h, b_cc], GOOD_SPEC))

    up = _src("src/common/up.cc", '#include "csv/b.h"\n')
    b_h = _src("src/csv/b.h", "#ifndef SCOOP_B_H_\n#endif\n")
    expect("layering/upward-edge-rejected",
           layering.check([a_h, b_h, up], GOOD_SPEC),
           "layering", contains="common -> csv")

    ghost = _src("src/newmod/x.cc", "int x;\n")
    expect("layering/undeclared-module",
           layering.check([a_h, b_cc, ghost], GOOD_SPEC),
           "layering", contains="src/newmod/")

    expect("layering/stale-spec-module",
           layering.check([a_h, b_cc], GOOD_SPEC + "ghost: common\n"),
           "layering", contains="ghost")

    expect("layering/spec-cycle",
           layering.check([], "a: b\nb: a\n"),
           "layering", contains="not a DAG")

    c1 = _src("src/csv/c1.h",
              '#ifndef SCOOP_C1_H_\n#include "csv/c2.h"\n#endif\n')
    c2 = _src("src/csv/c2.h",
              '#ifndef SCOOP_C2_H_\n#include "csv/c1.h"\n#endif\n')
    expect("layering/file-include-cycle",
           layering.check([a_h, c1, c2], GOOD_SPEC),
           "layering", contains="include cycle")

    expect("layering/malformed-spec-line",
           layering.check([], "common\n"),
           "layering", contains="malformed")


# --- guarded-by -------------------------------------------------------------

def _cls(body):
    return _src("src/foo/a.h",
                "#ifndef SCOOP_SELFTEST_H_\n"
                "class Foo {\n" + body + "};\n#endif\n")


def test_guarded_by():
    expect("guarded-by/annotated-ok", guarded_by.check([_cls(
        "  Mutex mu_;\n  int count_ GUARDED_BY(mu_) = 0;\n")]))

    expect("guarded-by/unannotated-rejected", guarded_by.check([_cls(
        "  Mutex mu_;\n  int count_ = 0;\n")]),
        "guarded-by", contains="Foo::count_")

    expect("guarded-by/same-line-waiver-ok", guarded_by.check([_cls(
        "  Mutex mu_;\n"
        "  int count_ = 0;  // UNGUARDED: written before threads start\n")]))

    expect("guarded-by/comment-block-waiver-ok", guarded_by.check([_cls(
        "  Mutex mu_;\n"
        "  // UNGUARDED: only the constructor writes this, and the\n"
        "  // destructor joins every thread first.\n"
        "  int count_ = 0;\n")]))

    expect("guarded-by/waiver-needs-reason", guarded_by.check([_cls(
        "  Mutex mu_;\n  int count_ = 0;  // UNGUARDED:\n")]),
        "guarded-by", contains="no reason")

    expect("guarded-by/exemptions-ok", guarded_by.check([_cls(
        "  Mutex mu_;\n"
        "  CondVar cv_;\n"
        "  const int limit_ = 4;\n"
        "  Registry* const owner_ = nullptr;\n"
        "  static int shared_;\n"
        "  std::atomic<int> hits_{0};\n")]))

    expect("guarded-by/no-mutex-no-contract", guarded_by.check([_cls(
        "  int count_ = 0;\n")]))

    expect("guarded-by/nested-class", guarded_by.check([_src(
        "src/foo/a.h",
        "#ifndef SCOOP_SELFTEST_H_\n"
        "class Outer {\n"
        "  class Inner {\n"
        "    Mutex mu_;\n"
        "    int leaked_ = 0;\n"
        "  };\n"
        "  int plain_ = 0;\n"  # Outer owns no mutex: unconstrained
        "};\n#endif\n")],),
        "guarded-by", contains="Inner::leaked_")

    expect("guarded-by/methods-are-not-members", guarded_by.check([_cls(
        "  Mutex mu_;\n"
        "  void Lock() ACQUIRE(mu_);\n"
        "  int Get() const { return 0; }\n"
        "  int held_ GUARDED_BY(mu_) = 0;\n")]))

    # Outside src/ the contract does not apply.
    expect("guarded-by/tests-exempt", guarded_by.check([_src(
        "tests/t.cc", "class T {\n  Mutex mu_;\n  int x_ = 0;\n};\n")]))


# --- status-audit -----------------------------------------------------------

GOOD_STATUS_H = _src("src/common/status.h",
                     "#ifndef SCOOP_STATUS_H_\n"
                     "class [[nodiscard]] Status {};\n#endif\n")
GOOD_RESULT_H = _src("src/common/result.h",
                     "#ifndef SCOOP_RESULT_H_\n"
                     "template <typename T>\n"
                     "class [[nodiscard]] Result {};\n#endif\n")


def test_status_audit():
    expect("status-audit/clean-tree",
           status_audit.check([GOOD_STATUS_H, GOOD_RESULT_H]))

    expect("status-audit/nodiscard-removed", status_audit.check([
        _src("src/common/status.h",
             "#ifndef SCOOP_STATUS_H_\nclass Status {};\n#endif\n"),
        GOOD_RESULT_H]),
        "status-audit", contains="[[nodiscard]] Status")

    expect("status-audit/bare-void-call-discard", status_audit.check([
        GOOD_STATUS_H, GOOD_RESULT_H,
        _src("src/foo/a.cc", "void F() { (void)DoWork(); }\n")]),
        "status-audit", contains="bare `(void)`")

    expect("status-audit/bare-void-method-discard", status_audit.check([
        GOOD_STATUS_H, GOOD_RESULT_H,
        _src("src/foo/a.cc", "void F() { (void)client.Put(x); }\n")]),
        "status-audit", contains="bare `(void)`")

    expect("status-audit/void-variable-cast-ok", status_audit.check([
        GOOD_STATUS_H, GOOD_RESULT_H,
        _src("src/foo/a.cc", "void F(int unused) { (void)unused; }\n")]))

    expect("status-audit/ignore-with-reason-ok", status_audit.check([
        GOOD_STATUS_H, GOOD_RESULT_H,
        _src("src/foo/a.cc",
             "void F() {\n"
             "  // Best-effort cleanup; failure already logged.\n"
             "  Remove(path).IgnoreError();\n}\n")]))

    expect("status-audit/ignore-without-reason", status_audit.check([
        GOOD_STATUS_H, GOOD_RESULT_H,
        _src("src/foo/a.cc",
             "void F() {\n\n\n  Remove(path).IgnoreError();\n}\n")]),
        "status-audit", contains="without a reason")


# --- lock-rank --------------------------------------------------------------

SYNC_H = _src("src/common/sync.h",
              "#ifndef SCOOP_SYNC_H_\n"
              "namespace lockrank {\n"
              "inline constexpr int kQueue = 20;\n"
              "inline constexpr int kDevice = 50;\n"
              "}\n#endif\n")

DESIGN_OK = (
    "| Mutex (name) | Rank constant (`scoop::lockrank`) | Guards |\n"
    "|---|---|---|\n"
    "| `bytequeue` | `kQueue` (20) | queue state |\n"
    "| `device` | `kDevice` (50) | object map |\n"
    "| `scratch` | unranked | leaf helper |\n")

RANK_SOURCES = [
    SYNC_H,
    _src("src/common/bytestream.h",
         '#ifndef SCOOP_BS_H_\nclass Q {\n'
         '  Mutex mu_{"bytequeue", lockrank::kQueue};\n'
         '  int x_ GUARDED_BY(mu_);\n};\n#endif\n'),
    _src("src/objectstore/device.h",
         '#ifndef SCOOP_DEV_H_\nclass D {\n'
         '  Mutex mu_{"device", lockrank::kDevice};\n'
         '  int x_ GUARDED_BY(mu_);\n};\n#endif\n'),
    _src("src/common/scratch.cc", 'Mutex g_scratch("scratch");\n'),
]


def test_lock_rank():
    expect("lock-rank/consistent",
           crosscheck.check_lock_ranks(RANK_SOURCES, DESIGN_OK))

    expect("lock-rank/undocumented-mutex", crosscheck.check_lock_ranks(
        RANK_SOURCES + [_src("src/foo/a.cc",
                             'Mutex g("mystery", lockrank::kQueue);\n')],
        DESIGN_OK),
        "lock-rank", contains="mystery")

    expect("lock-rank/unknown-constant", crosscheck.check_lock_ranks(
        [SYNC_H, _src("src/foo/a.cc",
                      'Mutex g("bytequeue", lockrank::kBogus);\n')],
        "| `bytequeue` | `kQueue` (20) | q |\n"),
        "lock-rank", "lock-rank", "lock-rank", "lock-rank",
        contains="not defined")
    # ^ also fires: doc-vs-construction mismatch, unused kQueue/kDevice.

    expect("lock-rank/value-drift", crosscheck.check_lock_ranks(
        RANK_SOURCES,
        DESIGN_OK.replace("`kQueue` (20)", "`kQueue` (21)")),
        "lock-rank", contains="sync.h defines it as 20")

    expect("lock-rank/rank-mismatch", crosscheck.check_lock_ranks(
        [SYNC_H,
         _src("src/common/bytestream.h",
              '#ifndef SCOOP_BS_H_\n'
              'Mutex g_q{"bytequeue", lockrank::kDevice};\n#endif\n'),
         RANK_SOURCES[2], RANK_SOURCES[3]],
        DESIGN_OK),
        "lock-rank", "lock-rank", contains="DESIGN.md documents")
    # ^ the mis-ranked bytequeue also leaves kQueue with no user.

    expect("lock-rank/two-ranks-one-name", crosscheck.check_lock_ranks(
        RANK_SOURCES + [_src("src/foo/dup.cc",
                             'Mutex g_dup("bytequeue", '
                             'lockrank::kDevice);\n')],
        DESIGN_OK),
        "lock-rank", contains="one name, one rank")

    expect("lock-rank/stale-doc-row", crosscheck.check_lock_ranks(
        [SYNC_H, RANK_SOURCES[1], RANK_SOURCES[3],
         _src("src/objectstore/device.h",
              '#ifndef SCOOP_DEV_H_\nclass D {\n'
              '  Mutex mu_{"device_v2", lockrank::kDevice};\n'
              '  int x_ GUARDED_BY(mu_);\n};\n#endif\n')],
        DESIGN_OK),
        "lock-rank", "lock-rank",
        contains='no Mutex with that name')

    expect("lock-rank/unused-constant", crosscheck.check_lock_ranks(
        [SYNC_H, RANK_SOURCES[1], RANK_SOURCES[3]],
        "| `bytequeue` | `kQueue` (20) | q |\n"
        "| `scratch` | unranked | s |\n"),
        "lock-rank", contains="never used")


# --- span-name --------------------------------------------------------------

SPAN_DESIGN = ("### Span catalog\n\n"
               "| Span (name) | Emitted by | Covers |\n"
               "|---|---|---|\n"
               "| `proxy.request` | proxy | one request |\n")


def test_span_name():
    ok = _src("src/foo/a.cc",
              'void F() { TraceSpan span("proxy.request"); }\n')
    expect("span-name/catalogued-ok",
           crosscheck.check_span_names([ok], SPAN_DESIGN))

    bad = _src("src/foo/a.cc",
               'void F() { TraceSpan span("proxy.requset"); }\n')
    expect("span-name/typo-rejected",
           crosscheck.check_span_names([ok, bad], SPAN_DESIGN),
           "span-name", contains="proxy.requset")

    expect("span-name/stale-row",
           crosscheck.check_span_names(
               [ok], SPAN_DESIGN + "| `ghost.span` | x | y |\n"),
           "span-name", contains="ghost.span")

    expect("span-name/no-catalog",
           crosscheck.check_span_names([ok], "# DESIGN\nno table here\n"),
           "span-name", contains="Span catalog")


# --- failpoint-name ---------------------------------------------------------

FAILPOINT_H = _src(
    "src/common/failpoint.h",
    '#ifndef SCOOP_FP_H_\n'
    'inline constexpr const char* kFailpointSites[] = {\n'
    '    "device.read",\n    "cache.fill",\n};\n#endif\n')


def test_failpoint_name():
    expect("failpoint-name/registered-ok", crosscheck.check_failpoint_names(
        [FAILPOINT_H,
         _src("src/foo/a.cc", 'SCOOP_FAILPOINT("device.read");\n')]))

    expect("failpoint-name/unregistered", crosscheck.check_failpoint_names(
        [FAILPOINT_H,
         _src("src/foo/a.cc", 'SCOOP_FAILPOINT("bogus.site");\n')]),
        "failpoint-name", contains="bogus.site")

    expect("failpoint-name/continuation-line",
           crosscheck.check_failpoint_names(
               [FAILPOINT_H,
                _src("src/foo/a.cc",
                     'auto k = Failpoints::Global().CheckData(\n'
                     '    "bogus.chunk", key, &buf);\n')]),
           "failpoint-name", contains="bogus.chunk")

    expect("failpoint-name/macro-definition-exempt",
           crosscheck.check_failpoint_names(
               [FAILPOINT_H,
                _src("src/foo/a.cc", "SCOOP_FAILPOINT(name)\n")]))


# --- metric-name ------------------------------------------------------------

METRICS_MD = ("| `proxy.retries` | counter | retry count |\n"
              "| `proxy_<N>.requests` | counter | per-proxy |\n")


def test_metric_name():
    expect("metric-name/catalogued-ok", crosscheck.check_metric_names(
        [_src("src/foo/a.cc",
              'm->GetCounter("proxy.retries")->Increment();\n')],
        METRICS_MD))

    expect("metric-name/uncatalogued", crosscheck.check_metric_names(
        [_src("src/foo/a.cc", 'm->GetCounter("bogus.metric");\n')],
        METRICS_MD),
        "metric-name", contains="bogus.metric")

    expect("metric-name/strformat-ok", crosscheck.check_metric_names(
        [_src("src/foo/a.cc",
              'm->GetCounter(StrFormat("proxy_%d.requests", id));\n')],
        METRICS_MD))

    expect("metric-name/bench-in-scope", crosscheck.check_metric_names(
        [_src("bench/b.cc", 'm->GetHistogram("bogus.metric");\n')],
        METRICS_MD),
        "metric-name", contains="bogus.metric")

    expect("metric-name/tests-exempt", crosscheck.check_metric_names(
        [_src("tests/t.cc", 'm->GetCounter("scratch.metric");\n')],
        METRICS_MD))


# --- header-name ------------------------------------------------------------

HEADER_PROTOCOL = ("## Header catalog\n\n"
                   "| Header | Direction | Meaning |\n"
                   "|---|---|---|\n"
                   "| `X-Auth-Token` | request | auth |\n"
                   "| `Content-Length` | both | body size |\n"
                   "| `X-Storlet-Parameter-<key>` | request | params |\n")


def test_header_name():
    ok = _src("src/net/a.cc",
              'void F(Headers& headers) {\n'
              '  headers.Set("X-Auth-Token", "t");\n'
              '  headers.Get("X-Storlet-Parameter-Schema");\n}\n'
              'constexpr char kWireContentLength[] = "Content-Length";\n')
    expect("header-name/catalogued-ok",
           crosscheck.check_header_names([ok], HEADER_PROTOCOL))

    bad = _src("src/net/b.cc",
               'void G(Headers& headers) {\n'
               '  headers.Set("X-Auth-Tokem", "t");\n}\n')
    expect("header-name/typo-rejected",
           crosscheck.check_header_names([ok, bad], HEADER_PROTOCOL),
           "header-name", contains="X-Auth-Tokem")

    bad_const = _src("src/net/c.cc",
                     'constexpr char kBogusHeader[] = "X-Bogus";\n'
                     'void H(Headers& h) { h.Set(kBogusHeader, "1"); }\n')
    expect("header-name/uncatalogued-constant",
           crosscheck.check_header_names([ok, bad_const], HEADER_PROTOCOL),
           "header-name", contains="kBogusHeader")

    # Constants defined elsewhere but referenced by the wire layer are in
    # scope; the same constant never touched by src/net or src/scoop is
    # not (its header may be app-level metadata that never frames).
    remote_const = _src("src/objectstore/h.h",
                        '#ifndef SCOOP_H_H_\n'
                        'inline constexpr char kDeviceHeader[] '
                        '= "X-Device";\n#endif\n')
    user = _src("src/net/d.cc", 'void I(Headers& h) '
                '{ h.Set(kDeviceHeader, "0"); }\n')
    expect("header-name/referenced-constant-rejected",
           crosscheck.check_header_names([ok, remote_const, user],
                                         HEADER_PROTOCOL),
           "header-name", contains="X-Device")
    expect("header-name/unreferenced-constant-out-of-scope",
           crosscheck.check_header_names([ok, remote_const],
                                         HEADER_PROTOCOL))

    # Outside the wire layer literal calls are unconstrained...
    app = _src("src/cache/e.cc",
               'void J(Headers& h) { h.Set("X-App-Scratch", "1"); }\n')
    expect("header-name/app-layer-exempt",
           crosscheck.check_header_names([ok, app], HEADER_PROTOCOL))

    # ...but catalog rows nothing uses anywhere are stale.
    expect("header-name/stale-row",
           crosscheck.check_header_names(
               [ok], HEADER_PROTOCOL + "| `X-Ghost` | response | gone |\n"),
           "header-name", contains="X-Ghost")

    expect("header-name/no-catalog",
           crosscheck.check_header_names([ok], "# PROTOCOL\nno table\n"),
           "header-name", contains="Header catalog")


# --- doc-path -----------------------------------------------------------------

DOC_TREE = {"src/csv/record_reader.h", "src/csv/record_reader.cc",
            "src/columnar/simd.h", "src/columnar/simd.cc",
            "tests/csv_test.cc", "tests/reference/scalar_row_reader.h"}


def test_doc_path():
    good = ("See `src/csv/record_reader.cc`, `src/columnar/`,\n"
            "`csv/record_reader.*`, `columnar/simd.{h,cc}` and\n"
            "`tests/csv_test.cc`.\n\n"
            "- `src/csv/` — `record_reader.*` parsing.\n"
            "- `tests/reference/` — `scalar_row_reader.h`.\n\n"
            "Prose may name a bare `writer.*` outside an inventory.\n")
    expect("doc-path/existing-paths-ok",
           docpaths.check({"DESIGN.md": good}, DOC_TREE))

    expect("doc-path/missing-src-file",
           docpaths.check({"README.md": "Moved to `src/csv/writer.cc`.\n"},
                          DOC_TREE),
           "doc-path", contains="src/csv/writer.cc")

    expect("doc-path/missing-src-dir",
           docpaths.check({"DESIGN.md": "The `src/ghost/` module.\n"},
                          DOC_TREE),
           "doc-path", contains="src/ghost/")

    expect("doc-path/module-relative-wildcard",
           docpaths.check({"METRICS.md": "| `x` | y | `sql/lexer.*` |\n"},
                          DOC_TREE),
           "doc-path", contains="sql/lexer.*")

    expect("doc-path/every-brace-alternative",
           docpaths.check({"DESIGN.md": "`csv/record_reader.{h,cc,inc}`\n"},
                          DOC_TREE),
           "doc-path", contains="record_reader.{h,cc,inc}")

    # The inventory form that rotted in DESIGN.md §2: bare names listed
    # under a module bullet resolve against that module, continuation
    # lines included, until the next bullet or blank line.
    inventory = ("- `src/csv/` — `record_reader.*` (reader),\n"
                 "  `writer.*`, `schema.*`.\n"
                 "- `src/columnar/` — `simd.*`.\n")
    expect("doc-path/inventory-bare-names",
           docpaths.check({"DESIGN.md": inventory}, DOC_TREE),
           "doc-path", "doc-path", contains="listed under `src/csv/`")


def run():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for _, fn in tests:
        fn()
    if _FAILURES:
        for failure in _FAILURES:
            print(f"self-test FAIL: {failure}")
        print(f"scoop_check --self-test: {len(_FAILURES)} failure(s)",
              file=sys.stderr)
        return 1
    print(f"scoop_check --self-test: OK ({len(tests)} suites)")
    return 0


if __name__ == "__main__":
    sys.exit(run())
