"""tools/lint_dead.py on a small synthetic repository: what counts as a
reference, what is scanned, and how the allowlist is held to account."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "lint_dead.py"


def _load():
    spec = importlib.util.spec_from_file_location("lint_dead", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lint_dead = _load()


def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))


@pytest.fixture
def repo(tmp_path):
    """``pkg``: one module of definitions, one that uses some of them, a
    bench and a testing subpackage, an e2e benchmark and a README."""
    _write(tmp_path, "src/pkg/__init__.py", """\
        from pkg.core import imported_only

        __all__ = ["imported_only", "listed_only"]
    """)
    _write(tmp_path, "src/pkg/core.py", """\
        __all__ = ["listed_only"]


        def used():
            return 1


        def unused():
            return 2


        def imported_only():
            return 3


        def listed_only():
            return 4


        def by_getattr():
            return 5


        def by_e2e():
            return 6


        def recursive(n):
            return recursive(n - 1) if n else 0


        def documented():
            return 7


        class Box:
            def __len__(self):
                return 0

            def size(self):
                return 0

            def _private(self):
                return 0
    """)
    _write(tmp_path, "src/pkg/user.py", """\
        import pkg.core as core


        def main():
            core.used()
            return getattr(core, "by_getattr")()
    """)
    _write(tmp_path, "src/pkg/bench/run.py", """\
        from pkg.core import unused


        def only_a_bench_uses_it():
            return unused()
    """)
    _write(tmp_path, "src/pkg/testing/oracle.py", """\
        def oracle():
            return 0
    """)
    _write(tmp_path, "benchmarks/e2e/run.py", """\
        from pkg import core

        core.by_e2e()
    """)
    _write(tmp_path, "tests/test_box.py", """\
        from pkg.core import Box


        def test_size():
            assert Box().size() == 0
    """)
    _write(tmp_path, "README.md", "Call `pkg.documented()` to get seven.\n")
    (tmp_path / "allow.txt").write_text("")
    return tmp_path


def _dead(root):
    return {d.key for d in lint_dead.scan(root, "pkg")}


def _lint(root, allowlist):
    (root / "allow.txt").write_text(textwrap.dedent(allowlist))
    return lint_dead.lint(root, "pkg", root / "allow.txt")


def test_unreferenced_function_is_flagged(repo):
    dead = _dead(repo)
    assert "pkg.core:unused" in dead
    assert "pkg.core:used" not in dead
    assert "pkg.user:main" in dead  # nothing calls the entry point either


def test_import_and_all_entries_are_not_references(repo):
    dead = _dead(repo)
    assert "pkg.core:imported_only" in dead
    assert "pkg.core:listed_only" in dead


def test_getattr_string_keeps_a_name_live(repo):
    assert "pkg.core:by_getattr" not in _dead(repo)


def test_e2e_benchmark_reference_keeps_a_name_live(repo):
    assert "pkg.core:by_e2e" not in _dead(repo)


def test_self_reference_is_not_a_use(repo):
    assert "pkg.core:recursive" in _dead(repo)


def test_methods_public_and_dunder(repo):
    dead = _dead(repo)
    assert "pkg.core:Box" in dead
    assert "pkg.core:Box.size" in dead  # a test's use does not count
    assert "pkg.core:Box.__len__" not in dead
    assert not any(key.endswith("._private") for key in dead)


def test_bench_and_testing_are_not_scanned(repo):
    dead = _dead(repo)
    assert not any(key.startswith(("pkg.bench", "pkg.testing")) for key in dead)
    # ... and their references do not keep production code alive
    assert "pkg.core:unused" in dead


def test_every_dead_definition_must_be_allowlisted(repo):
    problems, allowed = _lint(repo, "")
    assert allowed == []
    assert len(problems) == len(_dead(repo))
    assert any("pkg.core:unused is used by no production module" in p for p in problems)


def _full_allowlist(**override):
    entries = {
        "pkg.core:unused": "bench: run, only_a_bench_uses_it",
        "pkg.core:imported_only": "bench: run",
        "pkg.core:listed_only": "bench: run",
        "pkg.core:recursive": "bench: run",
        "pkg.core:documented": "api: Call `pkg.documented()` to get seven.",
        "pkg.core:Box": "probe: tests/test_box.py the size invariant",
        "pkg.core:Box.size": "probe: tests/test_box.py the size invariant",
        "pkg.user:main": "bench: run",
    }
    entries.update(override)
    return "".join(
        f"{key}  {why}\n" if why is not None else f"{key}\n"
        for key, why in entries.items()
    )


def test_allowlist_reasons_are_checked(repo):
    problems, allowed = _lint(repo, _full_allowlist())
    # the bench module does not use these four, so their reason fails
    assert len(problems) == 4
    for name in ("imported_only", "listed_only", "recursive", "main"):
        assert any(p.endswith(f"bench: run does not refer to {name}") for p in problems)
    assert len(allowed) == 4
    assert any("documented  api:" in line for line in allowed)


def test_entry_without_a_reason_fails(repo):
    problems, _ = _lint(repo, _full_allowlist(**{"pkg.core:documented": None}))
    assert any("pkg.core:documented: no reason given" in p for p in problems)


def test_reason_outside_the_fixed_set_fails(repo):
    problems, _ = _lint(
        repo, _full_allowlist(**{"pkg.core:documented": "kept: just in case"})
    )
    assert any(
        "pkg.core:documented: reason must be one of api:, bench:, probe:" in p
        for p in problems
    )


def test_api_reason_must_quote_the_readme(repo):
    problems, _ = _lint(
        repo, _full_allowlist(**{"pkg.core:documented": "api: pkg.documented() is public"})
    )
    assert any("must quote one README.md line" in p for p in problems)


def test_entry_no_longer_dead_fails(repo):
    problems, _ = _lint(
        repo, _full_allowlist(**{"pkg.core:used": "bench: run"})
    )
    assert any("pkg.core:used: no longer dead; delete the entry" in p for p in problems)


def test_script_exit_status_and_listing(repo):
    (repo / "allow.txt").write_text(_full_allowlist())
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--root", str(repo), "--package", "pkg",
         "--allowlist", str(repo / "allow.txt")],
        capture_output=True, text=True,
    )
    assert run.returncode == 1
    assert "allowed  pkg.core:documented  api:" in run.stdout
    assert "does not refer to recursive" in run.stderr
    # with only the entries whose reasons hold, and the rest deleted from
    # the code, the lint passes and lists what it allowed
    core = repo / "src/pkg/core.py"
    text = core.read_text()
    for name in ("imported_only", "listed_only", "recursive"):
        start = text.index(f"def {name}(")
        text = text[:start] + text[text.index("\n\n\n", start) + 3:]
    core.write_text(text)
    (repo / "src/pkg/__init__.py").write_text("")
    (repo / "src/pkg/user.py").write_text(
        "import pkg.core as core\n\ncore.used()\ngetattr(core, 'by_getattr')()\n"
    )
    allow = "".join(
        line + "\n" for line in _full_allowlist().splitlines()
        if line.split()[0] in {"pkg.core:unused", "pkg.core:documented",
                               "pkg.core:Box", "pkg.core:Box.size"}
    )
    (repo / "allow.txt").write_text(allow)
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--root", str(repo), "--package", "pkg",
         "--allowlist", str(repo / "allow.txt")],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.count("allowed  ") == 4
    assert "lint-dead: 4 allowed, 0 problem(s)" in run.stdout


def test_repository_allowlist_is_clean():
    root = SCRIPT.parent.parent
    problems, allowed = lint_dead.lint(
        root, "repro", root / "tools" / "lint_dead_allowlist.txt"
    )
    assert problems == []
    assert all(
        line.split("  ", 1)[1].startswith(lint_dead.KINDS) for line in allowed
    )


# -- the parameter rule and the receiver rule ------------------------------


@pytest.fixture
def knobs(tmp_path):
    """``pkg``: defaulted parameters passed every way and not at all, and
    methods sharing a name across classes, with the receivers that tell
    them apart."""
    _write(tmp_path, "src/pkg/__init__.py", "")
    _write(tmp_path, "src/pkg/knobs.py", """\
        from dataclasses import dataclass, field


        def by_keyword(x, scale=1.0):
            return x * scale


        def by_position(x, scale=1.0):
            return x * scale


        def by_forward(x, scale=1.0):
            return x * scale


        def forwarder(x, **kwargs):
            return by_forward(x, **kwargs)


        def unpassed(x, scale=1.0, *, mode="a"):
            return x * scale


        def as_value(x, scale=1.0):
            return x * scale


        REGISTRY = {"v": as_value}


        @dataclass
        class Record:
            name: str
            size: int = 1
            unset: int = 0
            derived: int = field(default=0, init=False)


        class Base:
            def __init__(self, a, b=2):
                self.a = a


        class Child(Base):
            pass
    """)
    _write(tmp_path, "src/pkg/net.py", """\
        class Topology:
            def attach(self, device):
                return device


        class Channel:
            def attach(self, ring):
                return ring


        class ShmChannel(Channel):
            def reset(self):
                return 0


        class Used:
            def via_self(self):
                return 0

            def via_annotation(self):
                return 0

            def via_constructor(self):
                return 0

            def via_anything(self):
                return 0

            def go(self):
                return self.via_self()


        class Decoy:
            def via_self(self):
                return 0

            def via_annotation(self):
                return 0

            def via_constructor(self):
                return 0

            def via_anything(self):
                return 0
    """)
    _write(tmp_path, "src/pkg/user.py", """\
        from pkg.knobs import (
            REGISTRY, Child, Record, by_keyword, by_position, forwarder, unpassed,
        )
        from pkg.net import Channel, ShmChannel, Used


        def main():
            by_keyword(1, scale=2.0)
            by_position(1, 2.0)
            forwarder(1, scale=3.0)
            unpassed(1)
            Record("r", 3)
            Child(1, 5)
            return REGISTRY["v"](1)


        def wire(channel: Channel):
            channel.attach(1)
            shm = ShmChannel()
            shm.reset()


        def use(obj: "Used", things):
            obj.via_annotation()
            fresh = Used()
            fresh.via_constructor()
            things[0].via_anything()
            return obj.go()
    """)
    _write(tmp_path, "tests/test_knobs.py", """\
        from pkg.knobs import unpassed
        from pkg.net import Topology


        def test_scale():
            assert unpassed(1, 2.0) == 2.0
            assert Topology().attach("d") == "d"
    """)
    _write(tmp_path, "README.md", "")
    (tmp_path / "allow.txt").write_text("")
    return tmp_path


def test_parameter_passed_any_way_is_live(knobs):
    dead = _dead(knobs)
    for live in ("by_keyword", "by_position", "by_forward", "as_value"):
        assert f"pkg.knobs:{live}(scale)" not in dead  # keyword, position, **, value
    assert "pkg.knobs:Record(size)" not in dead  # a dataclass field, by position
    assert "pkg.knobs:Base(b)" not in dead  # through a subclass's call
    assert "pkg.knobs:Record(derived)" not in dead  # init=False: no parameter


def test_unpassed_parameters_and_fields_are_flagged(knobs):
    params = {key for key in _dead(knobs) if key.endswith(")")}
    assert params == {
        "pkg.knobs:unpassed(scale)",
        "pkg.knobs:unpassed(mode)",
        "pkg.knobs:Record(unset)",
    }


def test_receivers_resolve_to_their_class(knobs):
    dead = _dead(knobs)
    for method in ("via_self", "via_annotation", "via_constructor"):
        assert f"pkg.net:Used.{method}" not in dead
        assert f"pkg.net:Decoy.{method}" in dead


def test_unresolved_receiver_keeps_every_method_of_the_name_live(knobs):
    dead = _dead(knobs)
    assert "pkg.net:Used.via_anything" not in dead
    assert "pkg.net:Decoy.via_anything" not in dead


def test_name_collision_flags_only_the_uncalled_class(knobs):
    dead = _dead(knobs)
    assert "pkg.net:Channel.attach" not in dead  # annotated receiver
    assert "pkg.net:ShmChannel.reset" not in dead  # bound from ShmChannel()
    assert "pkg.net:Topology.attach" in dead  # a test's call does not count


def test_parameter_entries_are_checked(knobs):
    problems, allowed = _lint(knobs, """\
        pkg.knobs:unpassed(scale)  probe: tests/test_knobs.py passed by position
        pkg.knobs:unpassed(mode)  probe: tests/test_knobs.py never passed
        pkg.knobs:by_keyword(scale)  probe: tests/test_knobs.py stale
    """)
    assert any(line.startswith("pkg.knobs:unpassed(scale)  probe:") for line in allowed)
    assert any("unpassed(mode): probe: tests/test_knobs.py does not pass mode to unpassed" in p
               for p in problems)
    assert any("by_keyword(scale): no longer dead; delete the entry" in p for p in problems)
    assert any("pkg.knobs:Record(unset) is passed by no production call" in p
               for p in problems)
