"""The four workloads: what each times, and how each checks its outputs.

Every workload runs whole rounds of the same operation on the same seeded
inputs until ``seconds`` have passed (at least one round). A round builds its
own model (set-up, timed apart), then makes the timed calls into the program
with the garbage collector off. Outputs are checked after the last round:
the first round against a computation made apart from the program, later
rounds for bitwise equality with the first.
"""

from __future__ import annotations

import gc
import math
import shutil
import statistics
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import inputs, reference

SETUP_SECONDS = 2.0     # set-ups timed back to back for this long before the rounds, and after
SETUP_GAP_SECONDS = 0.5 # and for this long after each round
SETUP_GROUPS = 10       # interleaved groups of set-up times whose means feed setup_s
BATCH_TOL = 1e-5        # relative L2 error vs the float64 pipeline (measured ~2e-7)
RESYNTH_TOL = 1e-4      # relative L2 error of LPS resynthesis on interior samples
LOSS_TOL = 1e-4         # relative error of the first step loss vs float64
GRAD_TOL = 2e-3         # estimated relative error of the gradient (measured 1e-4 to 3e-4)
GRAD_DIRECTIONS = 4     # random directions of the finite-difference gradient check
FD_FRAMES = 16          # frames of the finite-difference gradient check
FD_STEP = 1e-6          # small enough that PReLU kinks do not bias the difference


@dataclass
class Round:
    op_s: float                 # wall time of the workload's program calls
    calls_s: list[float]        # per-call times that feed the percentiles
    peak_bytes: int
    attempted: int
    failed: int
    output: object = None


@dataclass
class Result:
    setup_s: list[float]
    rounds: list[Round]
    audio_s: float
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    figures: dict = field(default_factory=dict)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


class Workload:
    """Base: subclasses define setup() and op(); run() drives the rounds."""

    name = ""
    audio_s = 0.0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        raise NotImplementedError

    def op(self, ctx) -> Round:
        raise NotImplementedError

    def check(self, result: Result) -> list[tuple[str, bool, str]]:
        raise NotImplementedError

    def figures(self, result: Result) -> dict:
        return {}

    def begin(self) -> None:
        """Untimed work once per run, before the measured rounds start."""

    def prepare(self, ctx) -> None:
        """Untimed work before a round's timed calls."""

    def finish(self, ctx, rnd: Round) -> None:
        """Untimed work after a round's timed calls (collecting outputs)."""

    def _round(self, memory: bool, tracer=None) -> tuple[float, Round]:
        setup_s, ctx = self.setup()
        self.prepare(ctx)
        gc.collect()
        gc.disable()
        if memory:
            tracemalloc.start()
        if tracer is not None:
            tracer.install([ctx["model"]])
        try:
            rnd = self.op(ctx)
            if memory:
                rnd.peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            if tracer is not None:
                tracer.uninstall()
            if memory:
                tracemalloc.stop()
            gc.enable()
        self.finish(ctx, rnd)
        return setup_s, rnd

    def _setups(self, seconds: float) -> list[float]:
        times, start = [], time.perf_counter()
        while time.perf_counter() - start < seconds:
            times.append(self.setup()[0])
        return times

    def run(self, seconds: float, tracer=None) -> Result:
        # set-ups before, between and after the rounds, so that they sample the
        # host's pace across the run as the timed calls do
        setups = self._setups(SETUP_SECONDS)
        self.begin()
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            setup_s, rnd = self._round(memory=tracer is None, tracer=tracer)
            setups.append(setup_s)
            setups += self._setups(SETUP_GAP_SECONDS)
            rounds.append(rnd)
        setups += self._setups(SETUP_SECONDS)
        result = Result(setup_s=setups, rounds=rounds, audio_s=self.audio_s)
        result.checks = self.check(result)
        result.figures = self.figures(result)
        return result


def setup_seconds(samples: list[float]) -> float:
    """Median over SETUP_GROUPS interleaved groups of their mean set-up time.

    A shared host can alternate between two paces in phases of 0.1-6 s. A
    set-up takes a few ms and falls wholly in one phase, so single set-up
    times are bimodal, and their median jumps to whichever pace held for more
    than half the samples. A group's mean follows the share of each pace;
    the median over groups drops a group that a garbage-collector pause hit.
    """
    groups = [samples[g::SETUP_GROUPS] for g in range(SETUP_GROUPS)]
    return statistics.median(statistics.fmean(g) for g in groups if g)


def _rel(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _same_as_first(result: Result, eq) -> tuple[str, bool, str]:
    outs = [r.output for r in result.rounds if r.output is not None]
    ok = all(eq(outs[0], o) for o in outs[1:])
    return ("rounds_identical", ok, f"{len(outs)} rounds")


# -- enhance_batch / enhance_batch_dense ---------------------------------------------


def check_enhanced(tfcn, model, mean, std, noisy, enhanced, params=None):
    """Enhanced waveform vs the float64 pipeline, and the resynthesis property.

    ``params`` overrides the reference's parameter values (negative controls).
    """
    params = reference.model_arrays(model) if params is None else params
    want = reference.enhance(model.config, params, mean.astype(np.float64),
                             std.astype(np.float64), noisy)
    rel = _rel(enhanced, want) if enhanced.shape == want.shape else math.inf
    spec = tfcn.stft(noisy)
    back = tfcn.istft(tfcn.reconstruct(tfcn.lps(spec), spec))
    edge = inputs.FRAME_LEN
    rel_back = _rel(back[edge:-edge], noisy[edge:back.size - edge])
    return [("matches_float64_pipeline", rel <= BATCH_TOL, f"rel {rel:.3g} <= {BATCH_TOL}"),
            ("resynthesis_returns_input", rel_back <= RESYNTH_TOL,
             f"rel {rel_back:.3g} <= {RESYNTH_TOL}")]


class EnhanceBatch(Workload):
    """enhance_waveform(streaming=False) on one noisy utterance."""

    name = "enhance_batch"
    variant = "tfcn"
    frames = 62             # 1 s of 16 kHz audio

    def __init__(self, seed, tfcn):
        super().__init__(seed)
        self.tfcn = tfcn
        n = inputs.samples_for_frames(self.frames)
        self.audio_s = n / inputs.RATE
        self.noisy, _, self.snr_db = inputs.utterance(seed, n)
        self.mean, self.std = inputs.normalizer_stats(seed)
        make = {"tfcn": tfcn.tfcn_config, "tfcn_d": tfcn.tfcn_d_config}[self.variant]
        self.cfg = make(tfcn.CausalityMode.causal())

    def setup(self):
        t_build, model = _timed(self.tfcn.build_model, self.cfg, seed=self.seed)
        inputs.randomize_state(model, self.seed)
        t_norm, norm = _timed(self.tfcn.Normalizer, mean=self.mean, std=self.std)
        return t_build + t_norm, {"model": model, "norm": norm}

    def op(self, ctx):
        t0 = time.perf_counter()
        try:
            out = self.tfcn.enhance_waveform(ctx["model"], ctx["norm"], self.noisy,
                                             streaming=False).samples
            failed = 0
        except Exception as exc:    # counted, reported, and kept out of the checks
            print(f"enhance_waveform failed: {exc!r}", flush=True)
            out, failed = None, 1
        dt = time.perf_counter() - t0
        return Round(op_s=dt, calls_s=[dt], peak_bytes=0, attempted=1, failed=failed,
                     output=out)

    def check(self, result):
        first = next((r.output for r in result.rounds if r.output is not None), None)
        if first is None:
            return []
        model = self.setup()[1]["model"]
        return check_enhanced(self.tfcn, model, self.mean, self.std, self.noisy, first) + [
            _same_as_first(result, np.array_equal)]

    def figures(self, result):
        return {"enhance_rtf": statistics.median(r.op_s for r in result.rounds) / self.audio_s}


class EnhanceBatchDense(EnhanceBatch):
    name = "enhance_batch_dense"
    variant = "tfcn_d"
    frames = 14             # 0.24 s; the column path runs tfcn_d at ~0.6 s a frame


# -- enhance_stream --------------------------------------------------------------------


LOOK_AHEAD = 19


def check_stream(streamed, batch, first_after, frames_in, look_ahead=LOOK_AHEAD):
    """Streaming contract: bitwise equal to batch, first output after L + 1
    input frames, one output per input."""
    equal = (streamed.shape == batch.shape
             and np.array_equal(streamed.view(np.uint32), batch.view(np.uint32)))
    return [("bitwise_equals_batch", bool(equal), f"{streamed.shape} vs {batch.shape}"),
            ("first_output_after_lookahead_plus_one", first_after == look_ahead + 1,
             f"first output after frame {first_after}"),
            ("frames_out_equal_frames_in", streamed.shape[0] == frames_in,
             f"{streamed.shape[0]} out, {frames_in} in")]


class EnhanceStream(Workload):
    """push_frame one frame at a time, then flush; tfcn semi-causal 19."""

    name = "enhance_stream"
    frames = 120            # 100 timed pushes after the first output at frame 20

    def __init__(self, seed, tfcn):
        super().__init__(seed)
        self.tfcn = tfcn
        n = inputs.samples_for_frames(self.frames)
        self.audio_s = n / inputs.RATE
        self.noisy, _, self.snr_db = inputs.utterance(seed, n)
        self.mean, self.std = inputs.normalizer_stats(seed)
        self.cfg = tfcn.tfcn_config(tfcn.CausalityMode.semi_causal(LOOK_AHEAD))
        self.noisy_lps = tfcn.lps(tfcn.stft(self.noisy))
        self.norm_frames = tfcn.Normalizer(mean=self.mean, std=self.std).normalize(
            self.noisy_lps)

    def setup(self):
        t_build, model = _timed(self.tfcn.build_model, self.cfg, seed=self.seed)
        inputs.randomize_state(model, self.seed)
        t_norm, norm = _timed(self.tfcn.Normalizer, mean=self.mean, std=self.std)
        t_stream, stream = _timed(self.tfcn.StreamingModel, model)
        return t_build + t_norm + t_stream, {"model": model, "norm": norm, "stream": stream}

    def op(self, ctx):
        stream = ctx["stream"]
        outs, times, failed = [], [], 0
        first_push = None
        for i, frame in enumerate(self.norm_frames, start=1):
            t0 = time.perf_counter()
            try:
                got = stream.push_frame(frame)
            except Exception as exc:
                print(f"push_frame {i} failed: {exc!r}", flush=True)
                got, failed = [], failed + 1
            times.append(time.perf_counter() - t0)
            if got and first_push is None:
                first_push = i
            outs.extend(got)
        t0 = time.perf_counter()
        outs.extend(stream.flush())
        flush_s = time.perf_counter() - t0
        after = times[first_push:] if first_push is not None else []
        collected = np.stack(outs) if outs else np.zeros((0, inputs.BINS), np.float32)
        return Round(op_s=sum(times) + flush_s, calls_s=after, peak_bytes=0,
                     attempted=len(times), failed=failed,
                     output=(collected, first_push, stream.first_output_after,
                             stream.frames_out))

    def check(self, result):
        first = result.rounds[0]
        if first.failed:
            return []
        _, ctx = self.setup()
        batch = self.tfcn.enhance_lps(ctx["model"], ctx["norm"], self.noisy_lps)
        collected, first_push, first_after, frames_out = first.output
        streamed = ctx["norm"].denormalize(collected)
        checks = check_stream(streamed, batch, first_after, frames_out)
        checks.append(("first_push_with_output", first_push == LOOK_AHEAD + 1,
                       f"push {first_push}"))
        checks.append(("collected_rows", collected.shape[0] == frames_out,
                       f"{collected.shape[0]} rows, frames_out {frames_out}"))
        checks.append(_same_as_first(
            result, lambda a, b: np.array_equal(a[0], b[0]) and a[1:] == b[1:]))
        return checks

    def figures(self, result):
        calls = [t for r in result.rounds for t in r.calls_s]
        return {"stream_frame_ms_p50": 1e3 * float(np.percentile(calls, 50)),
                "stream_frame_ms_p90": 1e3 * float(np.percentile(calls, 90)),
                "stream_rtf": statistics.median(r.op_s for r in result.rounds) / self.audio_s,
                "timed_pushes": len(calls)}


# -- train_epoch ------------------------------------------------------------------------


def gradient_probe(tfcn, model, mean, std, noisy, clean, seed):
    """The program's gradient from ``Model.backward``, GRAD_DIRECTIONS random
    unit directions in parameter space, and along each a central difference
    of the float64 loss. BN buffers and grads are restored, so the model is
    as it was."""
    norm = tfcn.Normalizer(mean=mean, std=std)
    x = norm.normalize(tfcn.lps(tfcn.stft(noisy)))
    clean_lps = tfcn.lps(tfcn.stft(clean))
    saved = [(name, buf.copy()) for name, buf in model.named_buffers()]
    y = model.forward(np.ascontiguousarray(x.T[None, None]), training=True)
    est = y[0, 0].T * norm.std + norm.mean
    grad_est = tfcn.frame_rms_loss_grad(clean_lps, est)
    model.backward(np.ascontiguousarray((grad_est * norm.std).T[None, None]))
    grads = {p.name: p.grad.astype(np.float64) for p in model.parameters()}
    model.zero_grad()
    for name, buf in saved:
        model.set_buffer(name, buf)

    rng = np.random.default_rng([seed, 3])
    base = reference.model_arrays(model)
    m64, s64 = mean.astype(np.float64), std.astype(np.float64)
    directions, fds = [], []
    for _ in range(GRAD_DIRECTIONS):
        rand = {name: rng.normal(size=g.shape) for name, g in grads.items()}
        r_norm = _norm(rand)
        direction = {k: r / r_norm for k, r in rand.items()}

        def loss(h):
            p = {k: v + h * direction[k] if k in direction else v for k, v in base.items()}
            return reference.training_loss(model.config, p, m64, s64, noisy, clean)

        directions.append(direction)
        fds.append((loss(FD_STEP) - loss(-FD_STEP)) / (2 * FD_STEP))
    return grads, directions, fds


def _norm(arrays: dict) -> float:
    return math.sqrt(sum(float((a * a).sum()) for a in arrays.values()))


def check_gradient(grads, directions, fds) -> tuple[str, bool, str]:
    """Relative error of the program gradient g, estimated from directional
    derivatives. A random unit direction r in N dimensions projects an error
    e onto <r, e>, whose mean square is |e|^2 / N. So the rms over the
    directions of (fd - <r, g>), times sqrt(N) / |g|, estimates |e| / |g|
    however small the projection of g itself happens to be."""
    n = sum(g.size for g in grads.values())
    dots = [sum(float((d[k] * grads[k]).sum()) for k in grads) for d in directions]
    rms = math.sqrt(statistics.fmean((f - d) ** 2 for f, d in zip(fds, dots)))
    err = rms * math.sqrt(n) / _norm(grads)
    return ("directional_derivative", err <= GRAD_TOL,
            f"relative gradient error {err:.3g} <= {GRAD_TOL} over {len(fds)} directions")


def check_first_loss(program_loss: float, want: float) -> tuple[str, bool, str]:
    rel = abs(program_loss - want) / abs(want)
    return ("first_step_loss_float64", rel <= LOSS_TOL,
            f"{program_loss:.8g} vs {want:.8g}, rel {rel:.3g} <= {LOSS_TOL}")


def check_checkpoint(loaded_params, trained_params) -> tuple[str, bool, str]:
    names_ok = loaded_params.keys() == trained_params.keys()
    same = names_ok and all(
        np.array_equal(loaded_params[k].view(np.uint32), trained_params[k].view(np.uint32))
        for k in trained_params)
    return ("last_ckpt_bitwise", bool(same), f"{len(trained_params)} parameters")


class TrainEpoch(Workload):
    """train() for one epoch: one 2 s segment at batch size 1 (batch 8 would
    need about 17 GiB), validation on one 0.272 s utterance, checkpoints and
    history.csv in a temporary directory."""

    name = "train_epoch"
    val_frames = 16

    def __init__(self, seed, tfcn, scratch: Path):
        super().__init__(seed)
        self.tfcn = tfcn
        self.scratch = scratch
        self.segment_samples = 32000
        self.audio_s = self.segment_samples / inputs.RATE
        self.noisy, self.clean, self.snr_db = inputs.utterance(seed, self.segment_samples)
        n_val = inputs.samples_for_frames(self.val_frames)
        val_noisy, val_clean, self.val_snr_db = inputs.utterance(seed + 7919, n_val)
        self.val = [(val_noisy, val_clean)]
        self.mean, self.std = inputs.normalizer_stats(seed)
        self.cfg = tfcn.tfcn_config(tfcn.CausalityMode.causal())
        self.train_cfg = tfcn.TrainConfig(max_epochs=1, batch_size=1,
                                          segment_samples=self.segment_samples, seed=seed)
        self.steps = 1

    def setup(self):
        t_build, model = _timed(self.tfcn.build_model, self.cfg, seed=self.seed)
        inputs.randomize_state(model, self.seed)
        t_norm, norm = _timed(self.tfcn.Normalizer, mean=self.mean, std=self.std)
        # train() builds its own Adam, so that construction is in the timed call
        return t_build + t_norm, {"model": model, "norm": norm}

    def begin(self):
        # every round's model starts as this one does
        model = self.setup()[1]["model"]
        n = inputs.samples_for_frames(FD_FRAMES)
        self.grad_probe = gradient_probe(self.tfcn, model, self.mean, self.std,
                                         self.noisy[:n], self.clean[:n], self.seed)
        self.initial = reference.model_arrays(model)

    def prepare(self, ctx):
        ctx["out_dir"] = Path(tempfile.mkdtemp(prefix="train-", dir=self.scratch))

    def op(self, ctx):
        t0 = time.perf_counter()
        try:
            res = self.tfcn.train(ctx["model"], [(self.noisy, self.clean)], self.val,
                                  ctx["norm"], self.train_cfg, out_dir=ctx["out_dir"])
            failed = 0
        except Exception as exc:    # counted, reported, and kept out of the checks
            print(f"train failed: {exc!r}", flush=True)
            res, failed = None, self.steps
        dt = time.perf_counter() - t0
        return Round(op_s=dt, calls_s=[dt], peak_bytes=0, attempted=self.steps,
                     failed=failed, output=res)

    def finish(self, ctx, rnd):
        out_dir = ctx["out_dir"]
        try:
            if rnd.output is not None:
                from tfcn.checkpoint import load_checkpoint
                from tfcn.training import read_history_csv
                loaded = load_checkpoint(out_dir / "last.ckpt").model
                rnd.output = {
                    "losses": list(rnd.output.step_losses),
                    "history_rows": len(read_history_csv(out_dir / "history.csv")),
                    "trained": {p.name: p.data for p in ctx["model"].parameters()},
                    "loaded": {p.name: p.data for p in loaded.parameters()}}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def check(self, result):
        first = result.rounds[0].output
        if first is None:
            return []
        m64, s64 = self.mean.astype(np.float64), self.std.astype(np.float64)
        want = reference.training_loss(self.cfg, self.initial, m64, s64, self.noisy, self.clean)
        losses = first["losses"]
        return [check_gradient(*self.grad_probe),
                check_first_loss(losses[0], want),
                ("step_losses_finite", len(losses) == self.steps
                 and all(math.isfinite(v) for v in losses), f"{losses}"),
                ("history_one_row", first["history_rows"] == 1, f"{first['history_rows']}"),
                check_checkpoint(first["loaded"], first["trained"]),
                _same_as_first(result, lambda a, b: a["losses"] == b["losses"] and all(
                    np.array_equal(a["trained"][k], b["trained"][k]) for k in a["trained"]))]

    def figures(self, result):
        return {"train_epoch_s": statistics.median(r.op_s for r in result.rounds),
                "train_steps": self.steps}


NAMES = ("enhance_batch", "enhance_stream", "enhance_batch_dense", "train_epoch")


def make(name: str, seed: int, tfcn, scratch: Path) -> Workload:
    if name == "enhance_batch":
        return EnhanceBatch(seed, tfcn)
    if name == "enhance_batch_dense":
        return EnhanceBatchDense(seed, tfcn)
    if name == "enhance_stream":
        return EnhanceStream(seed, tfcn)
    if name == "train_epoch":
        return TrainEpoch(seed, tfcn, scratch)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
