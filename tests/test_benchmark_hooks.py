"""The benchmark's in-process runner, perfbench/child.py, hooks package
functions and methods by name, so a rename there shows up only as a
KeyError in a traced benchmark run.  These tests load child.py as it is
(without running it) and check that every name it hooks still resolves."""

import importlib
import importlib.util
import inspect
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def package_module(short):
    return importlib.import_module(f"motifclust.{short}")


def is_method(short, qualname, child):
    """Whether child.py wraps `short.qualname` as a class attribute: it
    reads the attribute from the class's own namespace."""
    if qualname not in child.METHODS.get(short, ()):
        return False
    cls_name, meth = qualname.split(".")
    return meth in vars(getattr(package_module(short), cls_name, object))


def is_traced_function(short, name):
    """Whether child.py's tracer wraps `short.name`: a public function
    defined in that module."""
    fn = getattr(package_module(short), name, None)
    return (
        not name.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == f"motifclust.{short}"
    )


def test_traced_modules_import():
    for short in load_child().MODULES:
        package_module(short)


def test_every_hooked_method_resolves():
    child = load_child()
    missing = [
        f"{short}.{qualname}"
        for short, names in child.METHODS.items()
        for qualname in names
        if not is_method(short, qualname, child)
    ]
    assert missing == []


def test_every_hook_target_resolves():
    child = load_child()
    missing = []
    for key in child.HOOKS:
        short, name = key.split(".", 1)
        if not (is_method(short, name, child) or is_traced_function(short, name)):
            missing.append(key)
    assert missing == []


def test_stamp_targets_resolve():
    # the set-up and sampling stamps wrap these two functions
    for short, name in (("matrices", "filter_min_width"), ("traceio", "save_trace")):
        assert is_traced_function(short, name), f"{short}.{name}"


def test_assign_and_align_hooks_count_from_the_state():
    # the hooks read sampler state attributes and record UNKNOWN, rather
    # than fail the run, once one of them is gone
    import numpy as np

    from motifclust.kernels import Hyperparameters
    from motifclust.sampler import init_state, resample_alignment, resample_assignment
    from motifclust.synthetic import planted_motif_groups

    child = load_child()
    data = planted_motif_groups(
        n_groups=2, members=3, core_width=6, length=9, sites=20, peak=0.8, seed=5
    ).records
    rng = np.random.default_rng(3)
    state = init_state(data, Hyperparameters(alpha=1.0, b=1.0, lam=6.0, wmin=4), rng)
    tracer = child.Tracer()
    spans = [
        tracer.wrap("sampler.resample_assignment", resample_assignment),
        tracer.wrap("sampler.resample_alignment", resample_alignment),
    ]
    buf = tracer._buffer()
    counts = []
    for _ in range(3):
        for i in range(state.n_motifs()):
            for span in spans:
                span(state, i, rng)
                counts.append((buf.last("x1"), buf.last("x2")))
    assert not [c for c in counts if child.UNKNOWN in c]
    # both moves scored candidates and moved something
    for hook in (counts[0::2], counts[1::2]):
        assert any(scored for scored, _ in hook) and any(moved for _, moved in hook)
