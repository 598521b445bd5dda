//! Rendering switch events into sampled power waveforms.

use rand::Rng;
use sbox_netlist::GateId;

use crate::{SamplingConfig, SwitchEvent};

/// Render `events` into a power trace in milliwatts, into a
/// caller-owned buffer (cleared and resized to `sampling.samples`) so
/// capture loops reuse one allocation.
///
/// Each event becomes a triangular current pulse starting at its
/// `time_ps`, of width `pulse_width_factor ×` the switching gate's
/// delay (queried through `gate_delay_ps`), carrying the event's full
/// energy. Sample `k` is the *bin-averaged* power over `[k·dt, (k+1)·dt)`
/// — a band-limited acquisition, so no pulse can fall between samples
/// and the trace integrates exactly to the total switching energy
/// (power is additive, the physical premise of the paper's Theorem 1).
/// Each event touches only the bins its pulse overlaps.
pub fn sample_waveform_into(
    out: &mut Vec<f64>,
    events: &[SwitchEvent],
    sampling: &SamplingConfig,
    pulse_width_factor: f64,
    gate_delay_ps: impl Fn(GateId) -> f64,
) {
    let dt = sampling.period_ps();
    out.clear();
    out.resize(sampling.samples, 0.0);
    for e in events {
        let width = pulse_width_factor * gate_delay_ps(e.gate);
        pulse_bins(e.time_ps, width, sampling, |k, frac| {
            out[k] += bin_power(e.energy_fj, frac, dt);
        });
    }
}

/// The one pulse-bin loop of both engines: calls `bin(k, frac)`, in
/// ascending `k`, for every sample bin receiving a positive fraction
/// `frac` of the charge of a triangular pulse starting at `start` ps
/// with width `width` ps (floored at 1e-3 ps).
pub(crate) fn pulse_bins(
    start: f64,
    width: f64,
    sampling: &SamplingConfig,
    mut bin: impl FnMut(usize, f64),
) {
    let dt = sampling.period_ps();
    let width = width.max(1e-3);
    let end = start + width;
    let first = (((start / dt).floor().max(0.0)) as usize).min(sampling.samples);
    let last = ((end / dt).ceil() as usize).min(sampling.samples);
    for k in first..last.max(first) {
        let bin_lo = k as f64 * dt;
        let bin_hi = bin_lo + dt;
        let xa = ((bin_lo - start) / width).clamp(0.0, 1.0);
        let xb = ((bin_hi - start) / width).clamp(0.0, 1.0);
        let frac = pulse_cdf(xb) - pulse_cdf(xa);
        if frac > 0.0 {
            bin(k, frac);
        }
    }
}

/// The power (mW) a pulse of `energy_fj` adds to a bin of width `dt`
/// ps that receives `frac` of its charge: fJ / ps = mW.
#[inline]
pub(crate) fn bin_power(energy_fj: f64, frac: f64, dt: f64) -> f64 {
    energy_fj * frac / dt
}

/// Fraction of a unit-energy triangular pulse's charge delivered before
/// normalized time `x ∈ [0, 1]`.
fn pulse_cdf(x: f64) -> f64 {
    if x < 0.5 {
        2.0 * x * x
    } else {
        1.0 - 2.0 * (1.0 - x) * (1.0 - x)
    }
}

/// A standard normal sample via Box–Muller (avoids a `rand_distr`
/// dependency).
pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn event(t: f64, e: f64) -> SwitchEvent {
        SwitchEvent {
            gate: gate_id(),
            time_ps: t,
            rising: true,
            energy_fj: e,
            absorbed: false,
        }
    }

    fn gate_id() -> GateId {
        // Build a 1-gate netlist just to mint a GateId.
        use sbox_netlist::NetlistBuilder;
        let mut b = NetlistBuilder::new("g");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let nl = b.finish().expect("valid");
        nl.net(y).driver().expect("driven")
    }

    /// Render into a fresh buffer, every gate `delay_ps` slow.
    fn render(
        events: &[SwitchEvent],
        sampling: &SamplingConfig,
        pwf: f64,
        delay_ps: f64,
    ) -> Vec<f64> {
        let mut out = vec![f64::NAN; 7];
        sample_waveform_into(&mut out, events, sampling, pwf, |_| delay_ps);
        out
    }

    #[test]
    fn pulse_integrates_to_its_energy() {
        let sampling = SamplingConfig {
            window_ps: 400.0,
            samples: 400, // 1 ps resolution for an accurate integral
        };
        let samples = render(&[event(50.0, 10.0)], &sampling, 4.0, 10.0);
        let integral: f64 = samples.iter().sum::<f64>() * sampling.period_ps();
        assert!((integral - 10.0).abs() < 0.8, "integral {integral}");
    }

    #[test]
    fn overlapping_pulses_add() {
        let sampling = SamplingConfig {
            window_ps: 100.0,
            samples: 100,
        };
        let one = render(&[event(10.0, 5.0)], &sampling, 2.0, 10.0);
        let two = render(&[event(10.0, 5.0), event(10.0, 5.0)], &sampling, 2.0, 10.0);
        for (a, b) in one.iter().zip(&two) {
            assert!((2.0 * a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn events_outside_the_window_are_clipped() {
        let sampling = SamplingConfig {
            window_ps: 100.0,
            samples: 100,
        };
        let samples = render(&[event(500.0, 5.0)], &sampling, 2.0, 10.0);
        assert_eq!(samples.len(), 100);
        assert!(samples.iter().all(|&s| s == 0.0));
    }

    /// The pre-fix implementation (iterator `.take(last).skip(first)`
    /// over the whole buffer), kept verbatim as the reference for the
    /// slice-indexing rewrite.
    fn reference_sample_waveform(
        events: &[SwitchEvent],
        sampling: &SamplingConfig,
        pulse_width_factor: f64,
        gate_delay_ps: impl Fn(GateId) -> f64,
    ) -> Vec<f64> {
        let dt = sampling.period_ps();
        let mut samples = vec![0.0f64; sampling.samples];
        for e in events {
            let width = (pulse_width_factor * gate_delay_ps(e.gate)).max(1e-3);
            let start = e.time_ps;
            let end = start + width;
            let first = ((start / dt).floor().max(0.0)) as usize;
            let last = ((end / dt).ceil() as usize).min(sampling.samples);
            for (k, slot) in samples
                .iter_mut()
                .enumerate()
                .take(last)
                .skip(first.min(sampling.samples))
            {
                let bin_lo = k as f64 * dt;
                let bin_hi = bin_lo + dt;
                let xa = ((bin_lo - start) / width).clamp(0.0, 1.0);
                let xb = ((bin_hi - start) / width).clamp(0.0, 1.0);
                let frac = pulse_cdf(xb) - pulse_cdf(xa);
                if frac > 0.0 {
                    *slot += e.energy_fj * frac / dt;
                }
            }
        }
        samples
    }

    #[test]
    fn sliced_indexing_matches_the_old_path_on_random_event_sets() {
        let gate = gate_id();
        let mut rng = SmallRng::seed_from_u64(0xFACE);
        for case in 0..50 {
            let sampling = SamplingConfig {
                window_ps: 500.0,
                samples: 1 + (rng.gen::<usize>() % 400),
            };
            let n = rng.gen::<usize>() % 40;
            let events: Vec<SwitchEvent> = (0..n)
                .map(|_| SwitchEvent {
                    gate,
                    // Include events before, inside, at the edge of, and
                    // beyond the sampling window.
                    time_ps: rng.gen::<f64>() * 700.0 - 50.0,
                    rising: rng.gen(),
                    energy_fj: rng.gen::<f64>() * 10.0,
                    absorbed: rng.gen(),
                })
                .collect();
            let delay = 1.0 + rng.gen::<f64>() * 20.0;
            let new = render(&events, &sampling, 1.5, delay);
            let old = reference_sample_waveform(&events, &sampling, 1.5, |_| delay);
            assert_eq!(new, old, "case {case}");
        }
    }

    #[test]
    fn narrow_pulse_near_the_window_end_touches_only_its_bins() {
        let sampling = SamplingConfig {
            window_ps: 1000.0,
            samples: 1000, // 1 ps bins
        };
        // A 2 ps pulse starting at 995 ps: only the last handful of bins
        // may be nonzero — the slice rewrite never visits bins [0, 995).
        let samples = render(&[event(995.0, 4.0)], &sampling, 2.0, 1.0);
        assert!(samples[..995].iter().all(|&s| s == 0.0));
        assert!(samples[995..].iter().any(|&s| s > 0.0));
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
