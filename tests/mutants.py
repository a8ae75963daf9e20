"""Mutation check: each mutant changes one exact snippet of the library,
and the tests it names must fail on the mutated copy.

Run it from the repository root:

    python tests/mutants.py

It copies ``src``, ``tests`` and ``pyproject.toml`` into a temporary
directory, first runs every named test on the unmutated copy (they must
pass), then applies each mutant to a fresh copy of ``src`` and runs that
mutant's tests there.  A mutant survives when its tests pass.  The check
exits 1 when a snippet does not occur exactly once (so a refactor must
update this list), when the unmutated run fails, or when a mutant
survives.  pytest does not collect this file: its name does not start
with ``test_``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENUMERATION, SYSTEMS = "src/sparking/enumeration.py", "src/sparking/systems.py"
BIJECTIONS, GRAPHS = "src/sparking/bijections.py", "src/sparking/graphs.py"
MATROIDS, FORMATS = "src/sparking/matroids.py", "src/sparking/formats.py"
CLI = "src/sparking/cli.py"

# (file, snippet, replacement, test ids that must fail on the mutant)
MUTANTS = [
    # the share runner: a child's exit status, its result, the kill of the
    # children still running, the thread check
    (ENUMERATION, "if status or type(sent) is not tuple:", "if type(sent) is not tuple:",
     ["tests/test_enumeration.py::test_shares_fail_when_a_child_exits_non_zero_after_a_whole_result"]),
    (ENUMERATION, "results.append(sent[0])", "results.append(sent)",
     ["tests/test_enumeration.py::test_shares_come_back_in_share_order_with_share_0_in_process"]),
    (ENUMERATION, "os.kill(pid, signal.SIGKILL)", "pass",
     ["tests/test_enumeration.py::test_shares_kill_the_children_when_share_0_fails"]),
    (ENUMERATION, "threading.active_count() > 1", "threading.active_count() > 2",
     ["tests/test_enumeration.py::test_shares_run_in_process_while_a_second_thread_runs"]),
    # the mask-level filters and the caps of _candidate_budget
    (ENUMERATION, "if not pool & d:", "if not pool & d & d - 1:",
     ["tests/test_enumeration.py::test_fast_path_agrees_with_object_path_exhaustively"]),
    (ENUMERATION, "held &= (period >> t * stride << t * stride) * repeat",
     "held &= (period >> (t + 1) * stride << (t + 1) * stride) * repeat",
     ["tests/test_enumeration.py::test_box_filter_agrees_with_the_per_cell_loop"]),
    (ENUMERATION, "if candidates > MAX_CHECK_CANDIDATES:", "if candidates > 10 * MAX_CHECK_CANDIDATES:",
     ["tests/test_enumeration.py::test_the_candidate_caps_are_inclusive"]),
    (ENUMERATION, "if cells > MAX_CHECK_CANDIDATES:", "if cells >= MAX_CHECK_CANDIDATES:",
     ["tests/test_enumeration.py::test_the_candidate_caps_are_inclusive"]),
    # the selectors read low bit first, as box_filter takes them; a stalled
    # rho in the roundtrip's failure lines; enumerate's box cap
    (ENUMERATION, "digits if backwards else digits[::-1]", "digits",
     ["tests/test_enumeration.py::test_box_filter_agrees_with_the_per_cell_loop"]),
    (ENUMERATION, "{render(f, str)} is not a parking function", "{f} is not a parking function",
     ["tests/test_enumeration.py::test_roundtrip_check_reports_failures"]),
    (CLI, "_box_budget(prod(map(len, system.sets)))", "None",
     ["tests/test_cli.py::test_enumerate_functions_refuses_a_box_beyond_the_cap_before_it_walks"]),
    # verify's Q from the table's minimal pools, not the singleton pools
    # alone; each oracle's refusals before it folds a pool
    (ENUMERATION, "found = table_sets(system)", "found = pool_filter(system.masks, system.masks)",
     ["tests/test_enumeration.py::test_verify_reports_equal_the_definitional_route"]),
    (ENUMERATION, "_box_budget(cells)\n    _oracle_budget(", "_oracle_budget(",
     ["tests/test_enumeration.py::test_each_oracle_refuses_before_it_folds_a_pool"]),
    (ENUMERATION, '_oracle_budget(cells, "value vectors", len(sets))', "None",
     ["tests/test_enumeration.py::test_each_oracle_refuses_before_it_folds_a_pool"]),
    (ENUMERATION, "_candidate_budget(k, len(covered))", "None",
     ["tests/test_enumeration.py::test_each_oracle_refuses_before_it_folds_a_pool"]),
    (ENUMERATION, '_oracle_budget(comb(len(covered), k), "candidate sets", k)', "None",
     ["tests/test_enumeration.py::test_each_oracle_refuses_before_it_folds_a_pool"]),
    (SYSTEMS, "if k > MAX_CHECK_SETS:", "if k > MAX_CHECK_SETS + 1:",
     ["tests/test_enumeration.py::test_the_candidate_caps_are_inclusive"]),
    # the certificates, the input checks and the weight order
    (SYSTEMS, "if hit.bit_count() > values[j]:", "if hit.bit_count() >= values[j]:",
     ["tests/test_systems.py::test_permutation_u42"]),
    (SYSTEMS, "if isinstance(e, bool) or not isinstance(e, int):", "if not isinstance(e, int):",
     ["tests/test_systems.py::test_set_inputs_reject_non_integer_ids"]),
    (SYSTEMS, "return tuple(sorted(self._table, key=self._table.__getitem__))",
     "return tuple(sorted(self._table))",
     ["tests/test_bijections.py::test_weight_choice_changes_the_pairing"]),
    # the pool dropped from the peel of parking_set_permutation; the table
    # recomputed on every access
    (SYSTEMS, "hit = masks[j] & pool & within", "hit = masks[j] & within",
     ["tests/test_systems.py::test_set_certificate_u42"]),
    (SYSTEMS, "    @_cached\n    def table(self):", "    @property\n    def table(self):",
     ["tests/test_matroids.py::test_each_public_call_builds_one_subfamily_table"]),
    # the sweep's fix-or-delete rule and the walk's |A_j| - 1 budget
    (BIJECTIONS, "if e & fixed or used[j] == budget[j]:", "if used[j] == budget[j]:",
     ["tests/test_bijections.py::test_rho_u42"]),
    (BIJECTIONS, "budget = [a.bit_count() - 1 for a in masks]", "budget = [a.bit_count() - 2 for a in masks]",
     ["tests/test_enumeration.py::test_walk_leaves_equal_the_table_families"]),
    # the graph layer: Dhar's burner, the union-find rank (its merges, the
    # edges it reads from a mask, their bit order), n = 0, the classic
    # candidate test
    (GRAPHS, "if w and heat[w] == values[w - 1] + 1:", "if w and heat[w] == values[w - 1]:",
     ["tests/test_graphs.py::test_burning_matches_the_definition_on_random_multigraphs"]),
    (GRAPHS, "if ru != rv:", "if True:",
     ["tests/test_graphs.py::test_spanning_trees_match_the_brute_force_listing"]),
    (GRAPHS, "if mask >> b & 1:", "if mask >> b:",
     ["tests/test_graphs.py::test_spanning_trees_match_the_brute_force_listing"]),
    (GRAPHS, "for e in stars.universe.order]", "for e, _, _ in graph.edges]",
     ["tests/test_graphs.py::test_graphic_bases_follow_the_bit_order_of_the_universe"]),
    (GRAPHS, "if n < 0:", "if n < 1:",
     ["tests/test_graphs.py::test_classic_n0_is_the_empty_function"]),
    (GRAPHS, "ordered[j] <= j + 1", "ordered[j] <= j + 2",
     ["tests/test_graphs.py::test_classic_n2"]),
    # the classic box's refusal, and deletion-contraction's prune of the
    # branches with too few edges to span
    (GRAPHS, "_box_budget(n ** n)\n    return [f", "return [f",
     ["tests/test_graphs.py::test_classic_refuses_a_box_beyond_the_cap"]),
    (GRAPHS, "elif len(pairs) >= n_vertices - 1:", "elif len(pairs) > n_vertices - 1:",
     ["tests/test_graphs.py::test_deletion_contraction_prunes_the_branches_that_cannot_span"]),
    # the matroid layer: the bracket, the exchange check, the cover search's
    # cap, and the survivors: the bracket's complement, read backwards on the
    # cocircuit side
    (MATROIDS, "held &= columns[b]", "held |= columns[b]",
     ["tests/test_matroids.py::test_bracket_matches_the_definition_on_uniform_matroids"]),
    (MATROIDS, "low, x = min(fails)", "low, x = max(fails)",
     ["tests/test_matroids.py::test_exchange_validation_rejects_non_matroid"]),
    (MATROIDS, "if (1 << n) - 1 > MAX_CHECK_CANDIDATES:", "if (1 << n) - 1 >= MAX_CHECK_CANDIDATES:",
     ["tests/test_matroids.py::test_the_cover_search_refuses_before_its_subset_listing"]),
    (MATROIDS, "_selectors(~_bracket(self.reference", "_selectors(_bracket(self.reference",
     ["tests/test_matroids.py::test_the_identity_reports_match_the_set_route_byte_for_byte"]),
    (MATROIDS, 'self.name == "cocircuit")', "False)",
     ["tests/test_matroids.py::test_the_identity_reports_match_the_set_route_byte_for_byte"]),
    # the one header reader's keyword check
    (FORMATS, " or keyword and tokens[0] != keyword", "",
     ["tests/test_formats.py::test_each_reader_names_its_header_form"]),
]


def _copy(root):
    """A copy of the source, the tests and the pytest settings under ``root``."""
    skip = shutil.ignore_patterns("__pycache__")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, root / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", root)


def _passes(root, ids):
    """Whether the tests ``ids`` pass on the copy under ``root``; a run that
    hangs past two minutes counts as failing."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids]
    try:
        run = subprocess.run(command, cwd=root, env=env, capture_output=True, timeout=120)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main():
    start = time.perf_counter()
    bad = [f"{path}: {snippet!r} occurs {(ROOT / path).read_text().count(snippet)} times"
           for path, snippet, _, _ in MUTANTS if (ROOT / path).read_text().count(snippet) != 1]
    if bad:
        print("\n".join(bad))
        return 1
    with tempfile.TemporaryDirectory() as scratch:
        clean = Path(scratch, "clean")
        _copy(clean)
        ids = list(dict.fromkeys(test for *_, tests in MUTANTS for test in tests))
        if not _passes(clean, ids):
            print("the named tests fail on the unmutated source")
            return 1
        survivors = 0
        for number, (path, snippet, replacement, tests) in enumerate(MUTANTS, 1):
            copy = Path(scratch, f"mutant-{number}")
            _copy(copy)
            target = copy / path
            target.write_text(target.read_text().replace(snippet, replacement))
            killed = not _passes(copy, tests)
            survivors += not killed
            print(f"{'killed ' if killed else 'SURVIVED'} {path}: {snippet!r} -> {replacement!r}")
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
