"""Fixture snippets per rule: positive, negative, and noqa cases."""

import textwrap

from repro.analysis import run_analysis


def lint(tmp_path, source, codes, name="snippet.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    report = run_analysis([str(path)], codes=codes)
    return report.unsuppressed


class TestRng001:
    def test_module_random_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """
            import random
            x = random.random()
            random.seed(7)
            """,
            ["RNG001"],
        )
        assert [f.line for f in findings] == [3, 4]
        assert "ambient RNG" in findings[0].message

    def test_numpy_random_flagged_through_alias(self, tmp_path):
        findings = lint(
            tmp_path,
            """
            import numpy as np
            np.random.seed(0)
            y = np.random.normal(size=3)
            """,
            ["RNG001"],
        )
        assert [f.line for f in findings] == [3, 4]

    def test_from_import_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """
            from random import randint
            n = randint(1, 6)
            """,
            ["RNG001"],
        )
        assert [f.line for f in findings] == [3]

    def test_seeded_constructors_allowed(self, tmp_path):
        assert lint(
            tmp_path,
            """
            import random
            import numpy as np
            rng = np.random.default_rng(7)
            seeded = random.Random(7)
            seq = np.random.SeedSequence(7)
            bitgen = np.random.PCG64(7)
            value = rng.random()
            """,
            ["RNG001"],
        ) == []

    def test_unimported_name_not_flagged(self, tmp_path):
        # a local object that happens to be called "random" is not the
        # stdlib module; without an import the rule must stay silent
        assert lint(
            tmp_path,
            """
            class _Box:
                def random(self):
                    return 4
            random = _Box()
            x = random.random()
            """,
            ["RNG001"],
        ) == []

    def test_noqa_suppresses(self, tmp_path):
        assert lint(
            tmp_path,
            """
            import random
            x = random.random()  # repro: noqa[RNG001]
            """,
            ["RNG001"],
        ) == []


class TestNdt001:
    def test_wall_clock_and_uuid_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """
            import os
            import time
            import uuid
            stamp = time.time()
            token = os.urandom(8)
            run_id = uuid.uuid4()
            """,
            ["NDT001"],
        )
        assert [f.line for f in findings] == [5, 6, 7]

    def test_datetime_now_flagged_via_from_import(self, tmp_path):
        findings = lint(
            tmp_path,
            """
            from datetime import datetime
            when = datetime.now()
            """,
            ["NDT001"],
        )
        assert [f.line for f in findings] == [3]

    def test_monotonic_timers_allowed(self, tmp_path):
        assert lint(
            tmp_path,
            """
            import time
            t0 = time.perf_counter()
            t1 = time.monotonic()
            """,
            ["NDT001"],
        ) == []

    def test_set_literal_iteration_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """
            out = []
            for item in {"a", "b"}:
                out.append(item)
            for item in sorted({"a", "b"}):
                out.append(item)
            """,
            ["NDT001"],
        )
        assert [f.line for f in findings] == [3]
        assert "hash-seed" in findings[0].message


class TestPkl001:
    def test_lambda_at_boundary_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """
            def drive(session, cells):
                return session.submit(lambda c: c, cells)
            """,
            ["PKL001"],
        )
        assert [f.line for f in findings] == [3]
        assert "lambda" in findings[0].message

    def test_plan_factories_are_boundaries(self, tmp_path):
        findings = lint(
            tmp_path,
            """
            from repro.engine.grid import ExecutionPlan
            plan = ExecutionPlan.for_cells(lambda c: c, [(1,)])
            batches = ExecutionPlan.for_batches(lambda b: b, [1, 2])
            """,
            ["PKL001"],
        )
        assert [f.line for f in findings] == [3, 4]

    def test_nested_def_capturing_lock_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """
            import threading

            def drive(session, cells):
                lock = threading.Lock()

                def cell(value):
                    with lock:
                        return value

                return session.submit(cell, cells)
            """,
            ["PKL001"],
        )
        assert [f.line for f in findings] == [11]
        assert "threading.Lock" in findings[0].message

    def test_nested_def_capturing_open_file_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """
            def drive(session, cells):
                handle = open("log.txt", "w")

                def cell(value):
                    handle.write(str(value))
                    return value

                return session.submit(cell, cells)
            """,
            ["PKL001"],
        )
        assert len(findings) == 1

    def test_clean_nested_def_allowed(self, tmp_path):
        # nested but closure-clean functions stay legal: the thread
        # backend never pickles, and that is a runtime mode decision
        assert lint(
            tmp_path,
            """
            def drive(session, cells):
                offset = 3

                def cell(value):
                    return value + offset

                return session.submit(cell, cells)
            """,
            ["PKL001"],
        ) == []

    def test_module_level_function_allowed(self, tmp_path):
        assert lint(
            tmp_path,
            """
            def cell(value):
                return value

            def drive(session, cells):
                return session.submit(cell, cells)
            """,
            ["PKL001"],
        ) == []


FPR_HEADER = """
TRAJECTORY = ("population", "seed")


class Config:  # repro: fingerprinted[TRAJECTORY]
"""


class TestFpr001:
    def test_complete_declaration_passes(self, tmp_path):
        assert lint(
            tmp_path,
            FPR_HEADER
            + """
                population: int = 8
                seed: int = 0
                # repro: non-trajectory[cache location only]
                cache_dir: str = ""
            """,
            ["FPR001"],
        ) == []

    def test_added_field_without_annotation_fails(self, tmp_path):
        # the acceptance-criterion direction #1: a new knob that is
        # neither declared trajectory nor annotated must fail
        findings = lint(
            tmp_path,
            FPR_HEADER
            + """
                population: int = 8
                seed: int = 0
                mutation_rate: float = 0.2
            """,
            ["FPR001"],
        )
        assert len(findings) == 1
        assert "mutation_rate" in findings[0].message
        assert "non-trajectory" in findings[0].message

    def test_deleted_field_fails_via_stale_declaration(self, tmp_path):
        # direction #2: deleting a declared field leaves a stale name
        # in the declaration, which must fail
        findings = lint(
            tmp_path,
            FPR_HEADER
            + """
                population: int = 8
            """,
            ["FPR001"],
        )
        assert len(findings) == 1
        assert "'seed'" in findings[0].message

    def test_field_both_declared_and_annotated_fails(self, tmp_path):
        findings = lint(
            tmp_path,
            FPR_HEADER
            + """
                population: int = 8
                # repro: non-trajectory[contradiction]
                seed: int = 0
            """,
            ["FPR001"],
        )
        assert len(findings) == 1
        assert "pick one" in findings[0].message

    def test_missing_declaration_tuple_fails(self, tmp_path):
        findings = lint(
            tmp_path,
            """
            class Config:  # repro: fingerprinted[NOWHERE]
                population: int = 8
            """,
            ["FPR001"],
        )
        assert any("NOWHERE" in f.message for f in findings)

    def test_empty_reason_fails(self, tmp_path):
        findings = lint(
            tmp_path,
            FPR_HEADER
            + """
                population: int = 8
                seed: int = 0
                cache_dir: str = ""  # repro: non-trajectory[]
            """,
            ["FPR001"],
        )
        assert len(findings) == 1
        assert "reason" in findings[0].message

    def test_private_and_classvar_fields_exempt(self, tmp_path):
        assert lint(
            tmp_path,
            """
            from typing import ClassVar

            TRAJECTORY = ("population",)


            class Config:  # repro: fingerprinted[TRAJECTORY]
                kind: ClassVar[str] = "config"
                population: int = 8
                _scratch: int = 0
            """,
            ["FPR001"],
        ) == []

    def test_unmarked_class_ignored(self, tmp_path):
        assert lint(
            tmp_path,
            """
            class Plain:
                anything: int = 1
            """,
            ["FPR001"],
        ) == []


class TestKrn001:
    def test_partial_kernel_set_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """
            from repro.engine.kernels import KernelImpl

            impl = KernelImpl(name="t", version="1", lut_tile=print)
            """,
            ["KRN001"],
        )
        assert len(findings) == 1
        assert "simulate_tables" in findings[0].message

    def test_full_set_and_reference_tier_pass(self, tmp_path):
        assert lint(
            tmp_path,
            """
            from repro.engine.kernels import KernelImpl

            def simulate_tables(plan, ties):
                return ties

            def sweep_ge(plan, ties):
                return ties

            def lut_tile(table, w_index, activations, out):
                return None

            full = KernelImpl(
                name="t", version="1",
                simulate_tables=simulate_tables,
                sweep_ge=sweep_ge,
                lut_tile=lut_tile,
            )
            reference = KernelImpl(name="numpy", version="1")
            """,
            ["KRN001"],
        ) == []

    def test_unknown_kernel_field_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """
            from repro.engine.kernels import KernelImpl

            impl = KernelImpl(name="t", version="1", lut_tyle=print)
            """,
            ["KRN001"],
        )
        assert any("lut_tyle" in f.message for f in findings)

    def test_wrong_arity_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """
            from repro.engine.kernels import KernelImpl

            def simulate_tables(plan, ties, extra):
                return ties

            def sweep_ge(plan, ties):
                return ties

            def lut_tile(table, w_index, activations, out):
                return None

            impl = KernelImpl(
                name="t", version="1",
                simulate_tables=simulate_tables,
                sweep_ge=sweep_ge,
                lut_tile=lut_tile,
            )
            """,
            ["KRN001"],
        )
        assert len(findings) == 1
        assert "3 positional" in findings[0].message

    def test_positional_fields_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """
            from repro.engine.kernels import KernelImpl

            impl = KernelImpl("t", "1")
            """,
            ["KRN001"],
        )
        assert any("by keyword" in f.message for f in findings)
