"""SimSpec facade: convenience keywords, spec semantics, stream determinism."""

from dataclasses import replace

import pytest

from repro.api import SimConfig, SimSpec
from repro.apps.dense import cholesky_program
from repro.check.differential import fingerprint
from repro.schedulers import scheduler_names
from repro.utils.validation import ValidationError
from repro.workload.stream import poisson_stream


def small_stream(n_jobs=3):
    return poisson_stream(
        [("chol", lambda: cholesky_program(4, 384))],
        rate_jobs_per_s=150.0, n_jobs=n_jobs, seed=5,
    )


def stream_signature(sres):
    return (
        sres.sim.makespan,
        sres.sim.bytes_transferred,
        tuple((j.jid, j.start_us, j.end_us) for j in sres.jobs),
    )


class TestSpecSemantics:
    def test_convenience_keywords_fold_into_config(self):
        spec = SimSpec("small-hetero", "eager", seed=9, batch_step=50.0,
                       record_level="tasks")
        assert spec.config.seed == 9
        assert spec.config.batch_step == 50.0
        assert spec.config.record_level == "tasks"
        # Folded in once: the effective values live only in `config`.
        assert spec.seed is None and spec.batch_step is None
        assert spec == SimSpec("small-hetero", "eager", config=SimConfig(
            seed=9, batch_step=50.0, record_level="tasks"))

    def test_keyword_form_equals_config_form(self):
        program = cholesky_program(4, 384)
        by_config = SimSpec(
            "small-hetero", "eager", config=SimConfig(seed=7, record_level="tasks")
        ).run(program)
        by_kw = SimSpec(
            "small-hetero", "eager", seed=7, record_level="tasks"
        ).run(program)
        assert fingerprint(by_config) == fingerprint(by_kw)

    def test_replace_keeps_new_config(self):
        spec = SimSpec("intel-v100", "multiprio", batch_step=50.0)
        assert replace(spec, config=SimConfig(seed=7)).config.seed == 7
        assert replace(spec, config=SimConfig(seed=7)).config.batch_step is None
        assert replace(spec, seed=5).config.seed == 5
        assert replace(spec, seed=5).config.batch_step == 50.0
        nondefault = SimConfig(
            seed=7, noise_sigma=0.1, record_level="tasks",
            pipeline=False, batch_drain_on_idle=False,
            sched_params={"relaxed": 4},
        )
        assert replace(spec, config=nondefault).config == nondefault

    def test_run_rejects_control_plane(self):
        from repro.control.plane import ControlConfig

        spec = SimSpec("small-hetero", "eager",
                       control=ControlConfig.unlimited())
        with pytest.raises(ValidationError, match="run_stream"):
            spec.run(cholesky_program(4, 384))

    def test_unknown_machine_rejected_at_run(self):
        spec = SimSpec("no-such-box", "eager")
        with pytest.raises(ValidationError, match="unknown machine"):
            spec.run(cholesky_program(4, 384))


class TestStreamDeterminism:
    @pytest.mark.parametrize("scheduler", scheduler_names())
    def test_every_registered_scheduler_is_stream_deterministic(self, scheduler):
        def once():
            spec = SimSpec("small-hetero", scheduler, isolated_baseline=False)
            return stream_signature(spec.run_stream(small_stream()))

        assert once() == once()

    @pytest.mark.parametrize("k", [2, 4])
    def test_relaxed_multiprio_is_stream_deterministic(self, k):
        def once():
            spec = SimSpec(
                "small-hetero", "multiprio", isolated_baseline=False,
                config=SimConfig(sched_params={"relaxed": k},
                                 check_invariants=True),
            )
            return stream_signature(spec.run_stream(small_stream()))

        assert once() == once()

    def test_batched_stream_deterministic_and_identical(self):
        def once(batch):
            spec = SimSpec(
                "small-hetero", "multiqueue", isolated_baseline=False,
                config=SimConfig(batch_step=batch, record_level="tasks"),
            )
            return spec.run_stream(small_stream())

        plain = once(None)
        batched = once(80.0)
        assert fingerprint(plain.sim) == fingerprint(batched.sim)
        assert stream_signature(plain) == stream_signature(batched)
