"""One measured process of the benchmark; ``run.py`` starts it, one per job.

    python3 perfbench/worker.py pass  '<spec json>'   one pass of a workload
    python3 perfbench/worker.py setup '<spec json>'   time until data is ready

The pass job drives ``oodlab.cli.main`` in-process on the workload's
commands, exactly as the console script would, and writes its measurements
as JSON to ``spec["result"]``. A fresh process per pass keeps each pass's
peak memory its own. After the measured pass it may also take
``spec["eval_reps"]`` eval-latency samples on the pass's outputs. The setup job imports only what a CLI run imports
before it prints the CLOCK_MONOTONIC time at which the data is ready.
"""

import json
import os
import sys
import time


def _spec():
    spec = json.loads(sys.argv[2])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    return spec


def setup(spec) -> None:
    from oodlab.cli import make_datasets
    from oodlab.config import load_config

    from workloads import make, shift_data

    wl = make(spec["workload"], spec["root"], spec["work"], spec["seed"])
    config = load_config(wl.setup_config, seed_override=wl.seed)
    if wl.name == "shift":
        shift_data(config)
    else:
        make_datasets(config)
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))


def _time_calls(module, name: str, work, sink: list) -> None:
    """Rebind ``module.name`` so each call appends (seconds, steps, rows) to ``sink``."""
    import inspect

    func = getattr(module, name)
    signature = inspect.signature(func)
    clock = time.perf_counter

    def timed(*args, **kwargs):
        t0 = clock()
        result = func(*args, **kwargs)
        seconds = clock() - t0
        sink.append((seconds, *work(signature.bind(*args, **kwargs).arguments)))
        return result

    setattr(module, name, timed)


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, from the kernel's high-water mark.

    ``ru_maxrss`` would not do: Linux carries it over from the parent through
    fork and exec, so a worker started by a large parent reports the parent's size.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_pass(spec) -> dict:
    import resource
    import shutil

    from oodlab import cli, trainer

    from gate import output_files
    from tracing import Tracer, layer_metrics
    from workloads import make, sgd_work, shift_work

    wl = make(spec["workload"], spec["root"], spec["work"], spec["seed"])
    for out in wl.out_dirs():
        shutil.rmtree(out, ignore_errors=True)
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install(os.path.join(spec["root"], "src"))
    core: list[tuple[float, int, int]] = []
    if wl.name == "shift":
        _time_calls(cli, "run_shift_sim", shift_work, core)
    else:
        _time_calls(trainer, "train", sgd_work, core)

    exit_codes = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for argv in wl.commands():
        sys.argv = ["oodlab"] + argv
        try:
            exit_codes.append(cli.main(argv))
        except Exception as exc:  # noqa: BLE001 - the console script would exit 1 here
            print(f"{argv[0]}: {type(exc).__name__}: {exc}", file=sys.stderr)
            exit_codes.append(1)
    wall = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "commands": [argv[0] for argv in wl.commands()],
        "exit_codes": exit_codes,
        "wall_s": wall,
        "cpu_s": (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
        "peak_rss_mb": peak_rss_mb(),
        "core": core,
        "bytes_written": sum(os.path.getsize(p) for p in output_files(wl.out_dirs())),
    }
    if tracer is not None:
        tracer.write(os.path.join(wl.work, "spans.tsv"))
        result["layers"] = layer_metrics(tracer.names, tracer.arrays(), tracer.bytes)
    if spec["eval_reps"] and not any(exit_codes):
        result["eval_ms"], result["eval_report"] = eval_latency(wl, spec["eval_reps"], spec["eval_warmup"])
    return result


def eval_latency(wl, reps: int, warmup: int) -> tuple[list[float], dict]:
    """Latency samples (ms) of one eval pass over the pass's final state, and the first eval's report.

    train_*: ``trainer.evaluate`` on the saved checkpoint over the eval sets.
    shift: ``shift_stats`` over every snapshot of one simulation's
    trajectory, the evaluation a simulation runs, alternating simulations.
    """
    from oodlab import trainer
    from oodlab.cli import make_datasets
    from oodlab.config import load_config
    from oodlab.shiftsim import shift_stats

    from gate import read_trajectory
    from workloads import shift_data

    calls = []
    if wl.name == "shift":
        for sub, path in wl.shift_configs:
            config = load_config(path, seed_override=wl.seed)
            bank, model = shift_data(config)
            snapshots = read_trajectory(os.path.join(wl.out(sub), "trajectory.csv"))[0]
            calls.append(
                lambda s=snapshots, b=bank, m=model, z=config.data.zeta: [shift_stats(f, b.labels, b.domain, m, z) for f in s]
            )
    else:
        config = load_config(wl.train_config, seed_override=wl.seed)
        _, _, eval_in, eval_out = make_datasets(config)
        model = trainer.load_checkpoint(os.path.join(wl.out("train"), "checkpoint.txt"))
        scorer = trainer.resolve_scorer(config.train.scorer, model.head_kind, config.train.criterion)
        positive = config.train.aupr_positive
        calls.append(lambda: trainer.evaluate(model, eval_in, eval_out, scorer, aupr_positive=positive))
    first = calls[0]()
    for i in range(warmup):
        calls[i % len(calls)]()
    samples = []
    for i in range(reps):
        call = calls[i % len(calls)]
        t0 = time.perf_counter()
        call()
        samples.append(1e3 * (time.perf_counter() - t0))
    report = {} if wl.name == "shift" else {"auroc": first.auroc, "aupr": first.aupr, "fpr95": first.fpr95}
    return samples, report


def main() -> None:
    mode = sys.argv[1]
    spec = _spec()
    if mode == "setup":
        setup(spec)
        return
    result = run_pass(spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
