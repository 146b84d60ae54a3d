#!/usr/bin/env python3
"""sptx_lint — repo-invariant checker for the SparseTransX tree.

Nine rules, each guarding a discipline the codebase relies on but no
compiler enforces:

  env-getenv      std::getenv("SPTX_...") appears only in
                  src/common/runtime_config.cpp — every other consumer goes
                  through the RuntimeConfig registry, so one snapshot
                  governs a whole run.
  env-registry    every "SPTX_*" string literal in src/ names a knob
                  registered in the runtime_config.cpp table, every
                  registered knob is documented in README.md's env table,
                  and every SPTX_* name in a README table row is registered
                  — no phantom knobs, no undocumented knobs, no docs for
                  deleted knobs.
  counter-names   every profiling::Counter enumerator has an index-aligned
                  entry in kCounterNames (the health surface and benches
                  print counters by these names).
  checkpoint-io   checkpoint-writing subsystems never open raw ofstream /
                  fopen handles — all checkpoint writes flow through
                  AtomicFileWriter so a crash can never leave a truncated
                  file.
  rng-discipline  no rand()/srand()/std::random_device in src/ — every
                  random stream is a seeded sptx::Rng, so any run is
                  replayable from its logged seeds.
  raw-threads     std::thread appears only inside src/runtime/ (the
                  TaskPool's workers plus the runtime::Thread wrapper the
                  procs-DDP worker heartbeat spawns through) — every other
                  site schedules through runtime::TaskPool so the process
                  keeps one view of available parallelism.
  process-control fork/exec/kill/waitpid appear only inside
                  src/distributed/ — child-process lifecycle is the DDP
                  supervisor's exclusive job, so no other subsystem can
                  leak a pid, steal a SIGCHLD, or fork a threaded process.
  include-layers  src/ subdirectories form layers; an #include may point
                  sideways or down, never up (common -> kg -> profiling ->
                  tensor/runtime -> sparse -> autograd/kernels -> nn ->
                  baseline/models -> train/eval/distributed/serve -> api).
  config-lifetime config::current() returns this thread's cached snapshot
                  slot by reference, and the next current() after an
                  install() re-points the slot and may free the snapshot.
                  Outside runtime_config.cpp (in src/, tests/, bench/,
                  examples/), neither config::current() nor
                  *config::current() may be bound to a reference
                  (auto&, const auto&, const RuntimeConfig&, ...) or passed
                  straight into a call as *config::current() — hold a copy
                  (`const auto snap = config::current();`) and pass *snap.

Exit status 0 when the tree is clean; 1 with one "file:line: rule: message"
diagnostic per violation otherwise. Registered as the `sptx_lint` ctest and
run by CI's static-analysis job; tests/test_lint.py self-tests every rule
against fixture trees.
"""

import argparse
import os
import re
import sys

# Directory layers for the include rule. Equal rank = same layer (intra-
# layer includes are fine: models <-> baseline share an interface header,
# distributed builds on train). An include from a lower-ranked directory
# into a higher-ranked one is a violation.
LAYERS = {
    "common": 0,
    "kg": 1,
    "profiling": 2,
    "tensor": 3,
    "runtime": 3,
    "sparse": 4,
    "autograd": 5,
    "kernels": 5,
    "nn": 6,
    "baseline": 7,
    "models": 7,
    "train": 8,
    "eval": 8,
    "distributed": 8,
    "serve": 8,
    "api": 9,
}

# Subsystems that write checkpoints: raw file-handle opens are banned here
# (AtomicFileWriter's own implementation lives in src/common/atomic_file.*,
# outside these prefixes).
CHECKPOINT_PREFIXES = (
    os.path.join("src", "models", "checkpoint"),
    os.path.join("src", "train") + os.sep,
    os.path.join("src", "distributed") + os.sep,
)

SOURCE_EXTS = (".cpp", ".hpp", ".h", ".cc")


def strip_comments(text):
    """Remove // and /* */ comments, preserving line structure and string
    literals (a // inside a string stays)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                state = "string"
            elif c == "'":
                state = "char"
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            if c == "\n":
                out.append(c)
        elif state == "string":
            if c == "\\":
                out.append(c)
                if nxt:
                    out.append(nxt)
                    i += 2
                    continue
            elif c == '"':
                state = "code"
            out.append(c)
        elif state == "char":
            if c == "\\":
                out.append(c)
                if nxt:
                    out.append(nxt)
                    i += 2
                    continue
            elif c == "'":
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


def iter_source_files(root, subdir="src"):
    base = os.path.join(root, subdir)
    for dirpath, _, filenames in os.walk(base):
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTS):
                yield os.path.join(dirpath, name)


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


class Linter:
    def __init__(self, root):
        self.root = root
        self.violations = []

    def report(self, path, line, rule, message):
        rel = os.path.relpath(path, self.root)
        self.violations.append(f"{rel}:{line}: {rule}: {message}")

    # -- rule: env-getenv ---------------------------------------------------

    def check_getenv(self):
        allowed = os.path.join(self.root, "src", "common", "runtime_config.cpp")
        pattern = re.compile(r'getenv\s*\(\s*"SPTX_')
        for path in iter_source_files(self.root):
            if os.path.abspath(path) == os.path.abspath(allowed):
                continue
            for lineno, line in enumerate(
                    strip_comments(read(path)).splitlines(), 1):
                if pattern.search(line):
                    self.report(
                        path, lineno, "env-getenv",
                        "getenv(\"SPTX_...\") outside runtime_config.cpp — "
                        "read the knob through the RuntimeConfig registry")

    # -- rule: env-registry -------------------------------------------------

    def registry_knobs(self):
        """Knob names from the declarative table in runtime_config.cpp."""
        path = os.path.join(self.root, "src", "common", "runtime_config.cpp")
        if not os.path.exists(path):
            return set(), path
        knobs = set(re.findall(r'\{\s*"(SPTX_[A-Z0-9_]+)"', read(path)))
        return knobs, path

    def check_registry(self):
        knobs, registry_path = self.registry_knobs()
        literal = re.compile(r'"(SPTX_[A-Z0-9_]+)"')
        for path in iter_source_files(self.root):
            for lineno, line in enumerate(
                    strip_comments(read(path)).splitlines(), 1):
                for name in literal.findall(line):
                    if name not in knobs:
                        self.report(
                            path, lineno, "env-registry",
                            f"'{name}' is not a registered knob — add it to "
                            "the runtime_config.cpp table (or fix the typo)")
        readme = os.path.join(self.root, "README.md")
        readme_text = read(readme) if os.path.exists(readme) else ""
        for name in sorted(knobs):
            if name not in readme_text:
                self.report(
                    registry_path, 1, "env-registry",
                    f"registered knob '{name}' is missing from README.md's "
                    "environment table")
        # The reverse direction: a table row naming a knob the registry no
        # longer has documents a setting that does nothing. Only table rows
        # count; prose may name CMake options (SPTX_NATIVE, ...).
        knob_word = re.compile(r"\bSPTX_[A-Z0-9_]+\b")
        for lineno, line in enumerate(readme_text.splitlines(), 1):
            if not line.lstrip().startswith("|"):
                continue
            for name in knob_word.findall(line):
                if name not in knobs:
                    self.report(
                        readme, lineno, "env-registry",
                        f"README.md table row names '{name}', which is not "
                        "a registered knob — drop the row or register it")

    # -- rule: counter-names ------------------------------------------------

    def check_counter_names(self):
        path = os.path.join(self.root, "src", "profiling", "counters.hpp")
        if not os.path.exists(path):
            return
        text = read(path)
        enum_match = re.search(r"enum class Counter[^{]*\{(.*?)\};", text,
                               re.DOTALL)
        names_match = re.search(
            r"kCounterNames\[\]\s*=\s*\{(.*?)\};", text, re.DOTALL)
        if not enum_match:
            self.report(path, 1, "counter-names", "Counter enum not found")
            return
        if not names_match:
            self.report(path, 1, "counter-names",
                        "kCounterNames table not found")
            return
        members = [m for m in re.findall(r"\b(k[A-Z]\w*)\s*[,=]",
                                         strip_comments(enum_match.group(1)))
                   if m != "kNumCounters"]
        entries = re.findall(r'"([^"]+)"', names_match.group(1))
        if len(entries) != len(members):
            self.report(
                path, 1, "counter-names",
                f"kCounterNames has {len(entries)} entries for "
                f"{len(members)} Counter enumerators — the lists must stay "
                "index-aligned")
        # Each name-table entry carries a `// kEnumerator` comment tying it
        # to its enum position; verify the tie-backs exist and line up.
        comments = re.findall(r'"\s*,?\s*//\s*(k\w+)', names_match.group(1))
        for i, member in enumerate(members):
            if i < len(comments) and comments[i] != member:
                self.report(
                    path, 1, "counter-names",
                    f"kCounterNames entry {i} is annotated '{comments[i]}' "
                    f"but the enum's member {i} is '{member}'")
            elif i >= len(comments):
                self.report(
                    path, 1, "counter-names",
                    f"kCounterNames entry {i} lacks its `// {member}` "
                    "tie-back comment")

    # -- rule: checkpoint-io ------------------------------------------------

    def check_checkpoint_io(self):
        pattern = re.compile(r"\bstd::ofstream\b|\bofstream\s+\w+\s*\(|"
                             r"\bfopen\s*\(")
        for path in iter_source_files(self.root):
            rel = os.path.relpath(path, self.root)
            if not rel.startswith(CHECKPOINT_PREFIXES):
                continue
            for lineno, line in enumerate(
                    strip_comments(read(path)).splitlines(), 1):
                if pattern.search(line):
                    self.report(
                        path, lineno, "checkpoint-io",
                        "raw file write in a checkpoint subsystem — go "
                        "through AtomicFileWriter so a crash cannot leave "
                        "a truncated checkpoint")

    # -- rule: rng-discipline -----------------------------------------------

    def check_rng(self):
        pattern = re.compile(
            r"\bstd::random_device\b|(?<![\w:])s?rand\s*\(")
        for path in iter_source_files(self.root):
            for lineno, line in enumerate(
                    strip_comments(read(path)).splitlines(), 1):
                if pattern.search(line):
                    self.report(
                        path, lineno, "rng-discipline",
                        "unseeded/global RNG in src/ — use a seeded "
                        "sptx::Rng so the run replays from logged seeds")

    # -- rule: raw-threads ----------------------------------------------------

    def check_raw_threads(self):
        """std::thread construction is a runtime-internal privilege.

        Allowed: src/runtime/ (the pool's workers and the runtime::Thread
        wrapper the procs-DDP worker heartbeat spawns through).
        std::this_thread (sleep/yield) is fine anywhere.
        """
        allowed_dir = os.path.join("src", "runtime") + os.sep
        pattern = re.compile(r"\bstd\s*::\s*thread\b")
        for path in iter_source_files(self.root):
            rel = os.path.relpath(path, self.root)
            if rel.startswith(allowed_dir):
                continue
            for lineno, line in enumerate(
                    strip_comments(read(path)).splitlines(), 1):
                if pattern.search(line):
                    self.report(
                        path, lineno, "raw-threads",
                        "raw std::thread outside src/runtime/ — submit to "
                        "runtime::TaskPool (or spawn a runtime::Thread for "
                        "a dedicated long-lived thread) so the process keeps "
                        "one view of available parallelism")

    # -- rule: process-control ------------------------------------------------

    def check_process_control(self):
        """Child-process lifecycle calls live only in src/distributed/.

        The DDP supervisor is the one place that forks, execs, signals and
        reaps workers; a fork() elsewhere in a process that already started
        the TaskPool clones a half-initialized runtime, and a stray
        waitpid() races the supervisor's reaper. Member calls like
        `task.kill(...)` are fine — only the bare/::-qualified libc names
        are matched.
        """
        allowed_dir = os.path.join("src", "distributed") + os.sep
        pattern = re.compile(
            r"(?<![\w.])(?:::\s*)?"
            r"(fork|vfork|execve|execv|execvp|execl|execlp|kill|waitpid)"
            r"\s*\(")
        for path in iter_source_files(self.root):
            rel = os.path.relpath(path, self.root)
            if rel.startswith(allowed_dir):
                continue
            for lineno, line in enumerate(
                    strip_comments(read(path)).splitlines(), 1):
                m = pattern.search(line)
                if m:
                    self.report(
                        path, lineno, "process-control",
                        f"{m.group(1)}() outside src/distributed/ — child-"
                        "process lifecycle belongs to the DDP supervisor")

    # -- rule: include-layers -----------------------------------------------

    def check_layers(self):
        include = re.compile(r'#include\s+"src/([^/"]+)/')
        for path in iter_source_files(self.root):
            rel = os.path.relpath(path, self.root)
            parts = rel.split(os.sep)
            if len(parts) < 3:  # src/<file> umbrella headers are exempt
                continue
            here = parts[1]
            if here not in LAYERS:
                self.report(path, 1, "include-layers",
                            f"directory 'src/{here}' has no layer "
                            "assignment — add it to LAYERS in sptx_lint.py")
                continue
            for lineno, line in enumerate(
                    strip_comments(read(path)).splitlines(), 1):
                m = include.search(line)
                if not m:
                    continue
                target = m.group(1)
                if target not in LAYERS:
                    if "." in target:  # src/sptransx.hpp-style umbrella
                        continue
                    self.report(path, lineno, "include-layers",
                                f"include of unlayered directory "
                                f"'src/{target}'")
                    continue
                if LAYERS[target] > LAYERS[here]:
                    self.report(
                        path, lineno, "include-layers",
                        f"'src/{here}' (layer {LAYERS[here]}) includes "
                        f"'src/{target}' (layer {LAYERS[target]}) — "
                        "includes must point sideways or down the layering")

    # -- rule: config-lifetime ---------------------------------------------

    def check_config_lifetime(self):
        """No reference may outlive a read of the thread's config slot.

        Matched on comment-stripped whole files, so a call split across
        lines is still caught. `RuntimeConfig copy = *config::current();`
        and `config::current()->...` used within one expression are fine.
        """
        allowed = os.path.join("src", "common", "runtime_config.cpp")
        call = r"(?:sptx\s*::\s*)?config\s*::\s*current\s*\(\s*\)"
        bound = re.compile(r"&\s*\w+\s*(?:=|\{)\s*\*?\s*" + call)
        passed = re.compile(r"[(,]\s*\*\s*" + call + r"\s*[,)]")
        for subdir in ("src", "tests", "bench", "examples"):
            for path in iter_source_files(self.root, subdir):
                if os.path.relpath(path, self.root) == allowed:
                    continue
                text = strip_comments(read(path))
                for pattern, what in ((bound, "bound to a reference"),
                                      (passed, "passed into a call")):
                    for m in pattern.finditer(text):
                        lineno = text.count("\n", 0, m.end()) + 1
                        self.report(
                            path, lineno, "config-lifetime",
                            f"config::current() {what} — the thread's slot "
                            "may be re-pointed (and the snapshot freed) by "
                            "the next current() after an install(); hold a "
                            "copy: `const auto snap = config::current();`")

    def run(self, rules=None):
        checks = {
            "env-getenv": self.check_getenv,
            "env-registry": self.check_registry,
            "counter-names": self.check_counter_names,
            "checkpoint-io": self.check_checkpoint_io,
            "rng-discipline": self.check_rng,
            "raw-threads": self.check_raw_threads,
            "process-control": self.check_process_control,
            "include-layers": self.check_layers,
            "config-lifetime": self.check_config_lifetime,
        }
        for name, check in checks.items():
            if rules and name not in rules:
                continue
            check()
        return self.violations


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (contains src/)")
    parser.add_argument("--rule", action="append", dest="rules",
                        help="run only this rule (repeatable)")
    args = parser.parse_args(argv)
    violations = Linter(os.path.abspath(args.root)).run(args.rules)
    for v in violations:
        print(v)
    if violations:
        print(f"sptx_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
