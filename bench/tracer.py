"""Spans around specflow's public functions, installed from outside the
package.

``Tracer.install`` replaces each traced function at every module attribute
through which the package looks it up (``specflow.sflow.eig_unitary``,
``specflow.scatter.levinson.phase_shifts_3d``, ...) and each traced method
on its class; ``Tracer.remove`` puts every original back, so an untraced
pass executes no wrapper.  A span is ``[name, start, end, parent, solve,
extra]`` with ``parent`` the index of the enclosing span (-1 at top level)
and ``extra`` a few numbers read from the call's arguments or result.
Spans stay in memory until the run writes them out.
"""

import functools
import sys
from time import perf_counter

import numpy as np

from specflow import matcore, rdet, sflow, upath
from specflow.scatter import levinson, onedim, potentials, radial

import workloads


def _phillips_extra(args, kwargs, out):
    # (samples taken, certified panels)
    return (out.parameters["samples"], len(out.certificate.epsilons))


def _channels_extra(args, kwargs, out):
    lmax = kwargs["lmax"] if "lmax" in kwargs else args[2]
    return (int(lmax) + 1,)


def _points_extra(args, kwargs, out):
    return (int(np.size(args[1])),)


def _channel_data_extra(args, kwargs, out):
    points = kwargs["points"] if "points" in kwargs else args[4]
    return (len(args[0].ks), int(points))


# (span name, module, attribute, extract); functions are replaced in every
# specflow module that holds the same object under that attribute name
FUNCTIONS = [
    ("matcore.check_unitary", matcore, "check_unitary", None),
    ("matcore.eig_unitary", matcore, "eig_unitary", None),
    ("matcore.abs_power", matcore, "abs_power", None),
    ("matcore.principal_log_unitary", matcore, "principal_log_unitary",
     None),
    ("sflow.sf_phillips", sflow, "sf_phillips", _phillips_extra),
    ("sflow.sf_alpha", sflow, "sf_alpha", None),
    ("sflow.sf_beta", sflow, "sf_beta", None),
    ("sflow.sf_det", sflow, "sf_det", None),
    ("sflow.sf_open_path", sflow, "sf_open_path", None),
    ("sflow.theta_endpoint", sflow, "theta_endpoint", None),
    ("sflow.xi_endpoint", sflow, "xi_endpoint", None),
    ("rdet.det_p", rdet, "det_p", None),
    ("scatter.onedim.smatrix_1d", onedim, "smatrix_1d", None),
    ("scatter.onedim.bound_states_1d", onedim, "bound_states_1d", None),
    ("scatter.radial.phase_shifts_3d", radial, "phase_shifts_3d",
     _channels_extra),
    ("scatter.radial.bound_state_channels", radial, "bound_state_channels",
     None),
    ("scatter.radial.choose_lmax", radial, "choose_lmax", None),
    ("scatter.radial.threshold_statistics_radial", radial,
     "threshold_statistics_radial", None),
    ("scatter.levinson.levinson_verify", levinson, "levinson_verify", None),
]

# scipy's expm is traced only where the path samplers look it up
SCOPED_FUNCTIONS = [("upath.expm", upath, "expm", None)]

METHODS = [
    ("upath.sample", upath.UnitaryPath, "__call__", None),
    ("upath.derivative", upath.UnitaryPath, "derivative", None),
    ("scatter.potentials.RadialPotential.call", potentials.RadialPotential,
     "__call__", _points_extra),
    ("scatter.levinson.ChannelData", levinson.ChannelData, "__init__",
     _channel_data_extra),
    ("scatter.levinson.ChannelData.ddelta_dk", levinson.ChannelData,
     "ddelta_dk", None),
    # the benchmark's own dense-loop sampler, called from upath.sample
    ("upath.sampler", workloads.LoopSampler, "__call__", None),
]

WINDING_ENGINES = ("sflow.sf_alpha", "sflow.sf_beta", "sflow.sf_det",
                   "sflow.sf_open_path")
ENGINES = WINDING_ENGINES + ("sflow.sf_phillips",)

# (metric, unit, better) for the traced run, reported per traced pass
LAYER_METRICS = [
    ("matcore.check_unitary.calls", "count", "lower"),
    ("matcore.check_unitary.self_s", "s", "lower"),
    ("matcore.eig_unitary.calls", "count", "lower"),
    ("matcore.eig_unitary.self_s", "s", "lower"),
    ("matcore.abs_power.calls", "count", "lower"),
    ("matcore.abs_power.self_s", "s", "lower"),
    ("matcore.principal_log_unitary.calls", "count", "lower"),
    ("upath.sample.calls", "count", "lower"),
    ("upath.sample.self_s", "s", "lower"),
    ("upath.derivative.calls", "count", "lower"),
    ("upath.derivative.self_s", "s", "lower"),
    ("upath.sampler.calls", "count", "lower"),
    ("upath.samples_per_integrand_eval", "ratio", "lower"),
    ("upath.expm.calls", "count", "lower"),
    ("upath.expm.self_s", "s", "lower"),
    ("sflow.sf_phillips.s", "s", "lower"),
    ("sflow.sf_alpha.s", "s", "lower"),
    ("sflow.sf_beta.s", "s", "lower"),
    ("sflow.sf_det.s", "s", "lower"),
    ("sflow.sf_open_path.s", "s", "lower"),
    ("sflow.sf_phillips.self_s", "s", "lower"),
    ("sflow.sf_alpha.integrand_evals", "count", "lower"),
    ("sflow.sf_beta.integrand_evals", "count", "lower"),
    ("sflow.sf_det.integrand_evals", "count", "lower"),
    ("sflow.sf_open_path.integrand_evals", "count", "lower"),
    ("sflow.sf_phillips.samples", "count", "lower"),
    ("sflow.sf_phillips.sample_yield", "ratio", "higher"),
    ("sflow.theta_endpoint.s", "s", "lower"),
    ("sflow.xi_endpoint.s", "s", "lower"),
    ("rdet.det_p.calls", "count", "lower"),
    ("rdet.det_p.self_s", "s", "lower"),
    ("scatter.onedim.smatrix_1d.calls", "count", "lower"),
    ("scatter.onedim.smatrix_1d.self_s", "s", "lower"),
    ("scatter.onedim.bound_states_1d.s", "s", "lower"),
    ("scatter.radial.phase_shifts_3d.calls", "count", "lower"),
    ("scatter.radial.phase_shifts_3d.self_s", "s", "lower"),
    ("scatter.radial.phase_shifts_3d.channel_evals", "count", "lower"),
    ("scatter.radial.phase_shifts_3d.us_per_channel", "us", "lower"),
    ("scatter.radial.bound_state_channels.s", "s", "lower"),
    ("scatter.radial.choose_lmax.s", "s", "lower"),
    ("scatter.radial.threshold_statistics_radial.s", "s", "lower"),
    ("scatter.potentials.RadialPotential.call.calls", "count", "lower"),
    ("scatter.potentials.RadialPotential.call.self_s", "s", "lower"),
    ("scatter.potentials.RadialPotential.call.points", "count", "lower"),
    ("scatter.levinson.ChannelData.s", "s", "lower"),
    ("scatter.levinson.ChannelData.self_s", "s", "lower"),
    ("scatter.levinson.ChannelData.energies", "count", "lower"),
    ("scatter.levinson.ChannelData.refined_frac", "ratio", "lower"),
    ("scatter.levinson.ChannelData.ddelta_dk.calls", "count", "lower"),
    ("scatter.levinson.levinson_verify.self_s", "s", "lower"),
]


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.solve = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, extract):
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.solve, None]
            spans.append(span)
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
            if extract is not None:
                span[5] = extract(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "specflow" or n.startswith("specflow.")]
        targets = [(spec, modules) for spec in FUNCTIONS]
        targets += [(spec, [spec[1]]) for spec in SCOPED_FUNCTIONS]
        for (name, home, attr, extract), scope in targets:
            orig = getattr(home, attr)
            wrapper = self._wrap(name, orig, extract)
            for mod in scope:
                if mod.__dict__.get(attr) is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))
        for name, cls, attr, extract in METHODS:
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, orig, extract))
            self._undo.append((cls, attr, orig))

    def remove(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in
            zip(spans, child)]


def layer_metrics(spans, passes):
    """The LAYER_METRICS values per traced pass, from all traced spans."""
    selfs = self_times(spans)
    calls, total, self_s = {}, {}, {}
    engine = [None] * len(spans)
    evals = dict.fromkeys(WINDING_ENGINES, 0)
    winding_samples = 0
    phillips_samples = phillips_panels = 0
    channels = points = energies = grid_points = 0
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        engine[i] = name if name in ENGINES else (
            engine[parent] if parent >= 0 else None)
        if name == "upath.derivative" and engine[i] in evals:
            evals[engine[i]] += 1
        elif (name == "upath.sample" and engine[i] in evals
              and (parent < 0 or spans[parent][0] != "upath.sample")):
            winding_samples += 1
        elif name == "sflow.sf_phillips" and extra is not None:
            phillips_samples += extra[0]
            phillips_panels += extra[1]
        elif name == "scatter.radial.phase_shifts_3d" and extra is not None:
            channels += extra[0]
        elif (name == "scatter.potentials.RadialPotential.call"
              and extra is not None):
            points += extra[0]
        elif name == "scatter.levinson.ChannelData" and extra is not None:
            energies += extra[0]
            grid_points += extra[1]

    def ratio(num, base):
        return num / base if base else 0.0

    values = {}
    for metric, _, _ in LAYER_METRICS:
        span, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = calls.get(span, 0)
        elif stat == "self_s":
            values[metric] = self_s.get(span, 0.0)
        elif stat == "s":
            values[metric] = total.get(span, 0.0)
        elif stat == "integrand_evals":
            values[metric] = evals[span]
    derivs = sum(evals.values())
    values["upath.samples_per_integrand_eval"] = ratio(winding_samples,
                                                       derivs)
    values["sflow.sf_phillips.samples"] = phillips_samples
    values["sflow.sf_phillips.sample_yield"] = ratio(phillips_panels,
                                                     phillips_samples)
    values["scatter.radial.phase_shifts_3d.channel_evals"] = channels
    values["scatter.radial.phase_shifts_3d.us_per_channel"] = 1e6 * ratio(
        self_s.get("scatter.radial.phase_shifts_3d", 0.0), channels)
    values["scatter.potentials.RadialPotential.call.points"] = points
    values["scatter.levinson.ChannelData.energies"] = energies
    values["scatter.levinson.ChannelData.refined_frac"] = ratio(
        energies - grid_points, grid_points)
    ratios = {"upath.samples_per_integrand_eval",
              "sflow.sf_phillips.sample_yield",
              "scatter.radial.phase_shifts_3d.us_per_channel",
              "scatter.levinson.ChannelData.refined_frac"}
    return {k: (v if k in ratios else v / passes) for k, v in
            values.items()}
