"""Test-only copies of the CSV writers and the config key table.

``cli._metrics_row``, ``cli._summary_row``, the two ``runs.csv`` line
f-strings of ``cli._run_cell``, ``evaluation.report_to_csv``,
``evaluation.landscape_to_csv`` and ``cli._KEYS`` (with its parsers) as
they were before every table went through one schema writer and reader.
The tests hold the schema codec to these bytes.
"""

from mazegcrl import training as trainmod
from mazegcrl.cli import ConfigError


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ConfigError(f"expected true/false, got {text!r}")


def _parse_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


def _parse_ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _parse_strs(text: str) -> tuple:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _parse_bools(text: str) -> tuple:
    return tuple(_parse_bool(x) for x in text.split(","))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


# key -> (getter, setter) over RunConfig; setters parse strings
def _train_field(name, parser):
    return (lambda c: getattr(c.train, name),
            lambda c, v: setattr(c.train, name, parser(v)))


def _own_field(name, parser):
    return (lambda c: getattr(c, name),
            lambda c, v: setattr(c, name, parser(v)))


_KEYS = {
    "env.layout": _own_field("layout", str),
    "data.style": _own_field("style", str),
    "data.transitions": _own_field("transitions", int),
    "data.noise": _own_field("noise", float),
    "data.segment_len": _own_field("segment_len", int),
    "data.seed": _own_field("data_seed", int),
    "train.gamma": _train_field("discount", float),
    "train.expectile": _train_field("expectile", float),
    "train.continuity_weight": _train_field("continuity_weight", float),
    "train.high_temp": _train_field("high_temp", float),
    "train.low_temp": _train_field("low_temp", float),
    "train.subgoal_steps": _train_field("subgoal_steps", int),
    "train.target_rate": _train_field("target_rate", float),
    "train.lr": _train_field("lr", float),
    "train.batch_size": _train_field("batch_size", int),
    "train.steps": _train_field("total_steps", int),
    "train.value_goal_ratios": _train_field("value_goal_ratios", _parse_floats),
    "train.policy_goal_ratios": _train_field("policy_goal_ratios", _parse_floats),
    "train.hierarchical": _train_field("hierarchical", _parse_bool),
    "train.rep_grad_from_policy": _train_field("rep_grad_from_policy", _parse_bool),
    "train.objective": _train_field("objective", str),
    "train.normalize_inputs": _train_field("normalize_inputs", _parse_bool),
    "train.seed": _train_field("seed", int),
    "train.dtype": _train_field("dtype", str),
    "arch.kind": _train_field("arch_kind", str),
    "arch.value_hidden": _train_field("value_hidden", _parse_ints),
    "arch.policy_hidden": _train_field("policy_hidden", _parse_ints),
    "arch.rep_hidden": _train_field("rep_hidden", _parse_ints),
    "arch.rep_dim": _train_field("rep_dim", int),
    "arch.latent_dim": _train_field("latent_dim", int),
    "arch.iqe_components": _train_field("iqe_components", int),
    "arch.iqe_intervals": _train_field("iqe_intervals", int),
    "arch.mrn_sym_dim": _train_field("mrn_sym_dim", int),
    "arch.mrn_asym_dim": _train_field("mrn_asym_dim", int),
    "run.out_dir": _own_field("out_dir", str),
    "run.checkpoint_every": _own_field("checkpoint_every", int),
    "run.eval_every": _own_field("eval_every", int),
    "run.metrics_every": _own_field("metrics_every", int),
    "run.eval_trials": _own_field("eval_trials", int),
    "run.landscape_resolution": _own_field("landscape_resolution", int),
    "grid.arch_kinds": _own_field("grid_arch_kinds", _parse_strs),
    "grid.hierarchical": _own_field("grid_hierarchical", _parse_bools),
    "grid.continuity_weights": _own_field("grid_continuity", _parse_floats),
    "grid.styles": _own_field("grid_styles", _parse_strs),
    "grid.seeds": _own_field("grid_seeds", _parse_ints),
}


def config_lines(config) -> list[str]:
    return [f"{key}={_fmt(getter(config))}"
            for key, (getter, _) in sorted(_KEYS.items())]


def _fmtf(x: float) -> str:
    return f"{x:.17g}"


def _metrics_row(m: dict) -> str:
    return ",".join([str(m["step"])] + [
        _fmtf(m[k]) for k in ("td_loss", "continuity_loss", "high_policy_loss",
                              "low_policy_loss", "v_mean", "delta")])


def metrics_csv(rows: list[dict]) -> str:
    lines = [",".join(trainmod.METRIC_FIELDS)] + [_metrics_row(m) for m in rows]
    return "\n".join(lines) + "\n"


_SUMMARY_HEADER = ("arch,hierarchical,continuity_weight,style,n_seeds,n_ok,"
                   "success_mean,success_std,alignment_mean,alignment_std,"
                   "kendall_mean,kendall_std")


def _summary_row(cell: dict) -> str:
    return ",".join([
        cell["arch"], "true" if cell["hierarchical"] else "false",
        _fmtf(cell["continuity_weight"]), cell["style"],
        str(cell["n_seeds"]), str(cell["n_ok"]),
        _fmtf(cell["success_mean"]), _fmtf(cell["success_std"]),
        _fmtf(cell["alignment_mean"]), _fmtf(cell["alignment_std"]),
        _fmtf(cell["kendall_mean"]), _fmtf(cell["kendall_std"])])


def summary_csv(cells: list[dict]) -> str:
    return "\n".join([_SUMMARY_HEADER] + [_summary_row(c) for c in cells]) + "\n"


_RUNS_HEADER = ("arch,hierarchical,continuity_weight,style,seed,"
                "success,alignment,kendall,status")


def _runs_line(kind, hier, wc, style, seed, summary) -> str:
    """The failed-run line when ``summary`` is None, else the ok line."""
    hier_s = "true" if hier else "false"
    if summary is None:
        return (f"{kind},{hier_s},{_fmtf(wc)},{style},{seed},"
                f"nan,nan,nan,failed")
    return (f"{kind},{hier_s},{_fmtf(wc)},{style},{seed},"
            f"{_fmtf(summary['success'])},{_fmtf(summary['final_alignment'])},"
            f"{_fmtf(summary['final_kendall'])},ok")


def runs_csv(rows: list[dict]) -> str:
    """Rows as ``read_runs_csv`` returns them; status 'failed' takes the nan line."""
    lines = [_RUNS_HEADER]
    for r in rows:
        summary = None if r["status"] == "failed" else {
            "success": r["success"], "final_alignment": r["alignment"],
            "final_kendall": r["kendall"]}
        lines.append(_runs_line(r["arch"], r["hierarchical"], r["continuity_weight"],
                                r["style"], r["seed"], summary))
    return "\n".join(lines) + "\n"


def report_to_csv(reports) -> str:
    lines = ["step,task_id,success_rate,kendall,temporal_alignment"]
    for rep in reports:
        for i, (s, k, a) in enumerate(zip(rep.task_success, rep.task_kendall,
                                          rep.task_alignment)):
            lines.append(f"{rep.checkpoint_step},{i},{s:.17g},{k:.17g},{a:.17g}")
    return "\n".join(lines) + "\n"


def landscape_to_csv(grid) -> str:
    lines = ["x,y,value"]
    for x, y, v in zip(grid.xs, grid.ys, grid.values):
        lines.append(f"{x:.17g},{y:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"
