//! The event-driven simulation engine: the per-die [`Simulator`] model
//! and the records its captures produce.
//!
//! The event loop itself lives in [`CaptureSession`]; a `Simulator`
//! only samples the die's derated per-gate delays and energies and
//! hands out sessions (and bit-sliced sessions) that run on them.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sbox_netlist::{GateId, Netlist};

use crate::power::gaussian;
use crate::session::CaptureSession;
use crate::{Derating, SimConfig};

/// One output transition (or absorbed glitch pulse) of one gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchEvent {
    /// The switching gate.
    pub gate: GateId,
    /// Time of the (attempted) output change, in ps after the stimulus.
    pub time_ps: f64,
    /// Direction of the (attempted) transition.
    pub rising: bool,
    /// Energy drawn from the supply by this event, in femtojoules.
    pub energy_fj: f64,
    /// `true` if the pulse was absorbed by the inertial-delay rule (the
    /// output never completed the swing; `energy_fj` is already scaled by
    /// the configured absorbed fraction).
    pub absorbed: bool,
}

/// The result of simulating one input transition.
#[derive(Debug, Clone)]
pub struct TransitionRecord {
    /// All supply-current events, in non-decreasing time order.
    pub events: Vec<SwitchEvent>,
    /// Final settled value of every net (indexed by `NetId::index`).
    pub settled: Vec<bool>,
}

impl TransitionRecord {
    /// Total switching energy of the transition in femtojoules.
    pub fn total_energy_fj(&self) -> f64 {
        self.events.iter().map(|e| e.energy_fj).sum()
    }

    /// Number of full (non-absorbed) output transitions.
    pub fn full_transitions(&self) -> usize {
        self.events.iter().filter(|e| !e.absorbed).count()
    }

    /// Number of glitch pulses absorbed by inertial filtering.
    pub fn absorbed_glitches(&self) -> usize {
        self.events.iter().filter(|e| e.absorbed).count()
    }

    /// Time of the last event in ps (0.0 when nothing switched).
    pub fn settle_time_ps(&self) -> f64 {
        self.events.last().map_or(0.0, |e| e.time_ps)
    }
}

/// Event counters of one capture, cheap enough to aggregate across a
/// whole campaign (the `TransitionRecord` itself holds per-event detail
/// that trace acquisition does not need to keep).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CaptureStats {
    /// Total supply events (full transitions + absorbed glitches).
    pub events: usize,
    /// Completed output transitions.
    pub full_transitions: usize,
    /// Glitch pulses absorbed by inertial filtering.
    pub absorbed_glitches: usize,
    /// Time of the last event in ps (0.0 when nothing switched).
    pub settle_time_ps: f64,
}

impl CaptureStats {
    /// Accumulate another capture's counters into this one
    /// (`settle_time_ps` keeps the maximum).
    pub fn merge(&mut self, other: &CaptureStats) {
        self.events += other.events;
        self.full_transitions += other.full_transitions;
        self.absorbed_glitches += other.absorbed_glitches;
        self.settle_time_ps = self.settle_time_ps.max(other.settle_time_ps);
    }

    /// Counters of one capture from its (time-sorted) event log.
    pub fn from_events(events: &[SwitchEvent]) -> Self {
        let absorbed = events.iter().filter(|e| e.absorbed).count();
        Self {
            events: events.len(),
            full_transitions: events.len() - absorbed,
            absorbed_glitches: absorbed,
            settle_time_ps: events.last().map_or(0.0, |e| e.time_ps),
        }
    }
}

impl From<&TransitionRecord> for CaptureStats {
    fn from(record: &TransitionRecord) -> Self {
        Self::from_events(&record.events)
    }
}

/// An event-driven timing/power simulator bound to one netlist.
///
/// Construction samples the per-gate process variation from
/// [`SimConfig::seed`]; the same `Simulator` therefore models one physical
/// die measured many times. See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    pub(crate) netlist: &'a Netlist,
    pub(crate) config: SimConfig,
    /// Derated per-gate propagation delay in ps.
    pub(crate) delay_ps: Vec<f64>,
    /// Derated per-gate full-transition energy in fJ (intrinsic + fanout
    /// load at Vdd).
    pub(crate) energy_fj: Vec<f64>,
}

impl<'a> Simulator<'a> {
    /// Build a simulator for fresh (unaged) silicon.
    pub fn new(netlist: &'a Netlist, config: &SimConfig) -> Self {
        Self::with_derating(netlist, config, &Derating::fresh(netlist))
    }

    /// Build a simulator with per-gate aging derating.
    ///
    /// # Panics
    ///
    /// Panics if `derating.len()` differs from the netlist's gate count.
    pub fn with_derating(netlist: &'a Netlist, config: &SimConfig, derating: &Derating) -> Self {
        assert_eq!(
            derating.len(),
            netlist.gates().len(),
            "derating table does not match netlist"
        );
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let vdd_sq_scale = (config.vdd_v / 1.2).powi(2);
        let mut delay_ps = Vec::with_capacity(netlist.gates().len());
        let mut energy_fj = Vec::with_capacity(netlist.gates().len());
        for (g, gate) in netlist.gates().iter().enumerate() {
            let jitter = (1.0 + config.process_sigma * gaussian(&mut rng)).clamp(0.6, 1.4);
            delay_ps.push(gate.cell().delay_ps() * jitter * derating.delay_factor(g));
            let intrinsic = gate.cell().switch_energy_fj() * vdd_sq_scale;
            let load = 0.5 * netlist.fanout_cap_ff(gate.output()) * config.vdd_v * config.vdd_v;
            energy_fj.push((intrinsic + load) * derating.current_factor(g));
        }
        Self {
            netlist,
            config: config.clone(),
            delay_ps,
            energy_fj,
        }
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Derated propagation delay of a gate, in ps.
    pub fn gate_delay_ps(&self, gate: GateId) -> f64 {
        self.delay_ps[gate.index()]
    }

    /// Derated full-transition energy of a gate, in fJ (intrinsic cell
    /// switching energy plus fanout load at the configured Vdd).
    pub fn gate_energy_fj(&self, gate: GateId) -> f64 {
        self.energy_fj[gate.index()]
    }

    /// Start a reusable capture session (simulation arena): all scratch
    /// state the event loop needs is allocated once and cleared between
    /// captures. Sessions borrow the simulator immutably, so one
    /// simulator can back a session per worker thread.
    pub fn session(&self) -> CaptureSession<'_> {
        CaptureSession::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SamplingConfig;
    use sbox_netlist::{CellType, NetlistBuilder};

    fn quiet_config() -> SimConfig {
        SimConfig {
            process_sigma: 0.0,
            noise_mw: 0.0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn settled_state_matches_functional_evaluation() {
        let mut b = NetlistBuilder::new("fa");
        let x = b.input_bus("x", 3);
        let s1 = b.xor(x[0], x[1]);
        let s = b.xor(s1, x[2]);
        let c1 = b.and(&[x[0], x[1]]);
        let c2 = b.and(&[s1, x[2]]);
        let c = b.or(&[c1, c2]);
        b.output("s", s);
        b.output("c", c);
        let nl = b.finish().expect("valid");
        let sim = Simulator::new(&nl, &quiet_config());
        for init in 0u64..8 {
            for fin in 0u64..8 {
                let iv: Vec<bool> = (0..3).map(|i| (init >> i) & 1 == 1).collect();
                let fv: Vec<bool> = (0..3).map(|i| (fin >> i) & 1 == 1).collect();
                let rec = sim.session().transition(&iv, &fv);
                let expect = nl.evaluate_nets(&fv);
                assert_eq!(rec.settled, expect, "init={init} fin={fin}");
            }
        }
    }

    #[test]
    fn no_input_change_means_no_events() {
        let mut b = NetlistBuilder::new("inv");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let nl = b.finish().expect("valid");
        let sim = Simulator::new(&nl, &quiet_config());
        let rec = sim.session().transition(&[true], &[true]);
        assert!(rec.events.is_empty());
        assert_eq!(rec.total_energy_fj(), 0.0);
    }

    #[test]
    fn chain_delays_accumulate() {
        let mut b = NetlistBuilder::new("chain4");
        let a = b.input("a");
        let mut n = a;
        for _ in 0..4 {
            n = b.not(n);
        }
        b.output("y", n);
        let nl = b.finish().expect("valid");
        let sim = Simulator::new(&nl, &quiet_config());
        let rec = sim.session().transition(&[false], &[true]);
        assert_eq!(rec.events.len(), 4);
        let expect = 4.0 * CellType::Inv.delay_ps();
        assert!((rec.settle_time_ps() - expect).abs() < 1e-9);
    }

    #[test]
    fn unbalanced_xor_produces_a_glitch() {
        // y = (a after two inverters) XOR a: switching `a` makes the XOR see
        // its two inputs change at different times → a pulse on y.
        let mut b = NetlistBuilder::new("glitchy");
        let a = b.input("a");
        let d1 = b.not(a);
        let d2 = b.not(d1);
        let y = b.xor(d2, a);
        b.output("y", y);
        let nl = b.finish().expect("valid");
        let sim = Simulator::new(&nl, &quiet_config());
        let rec = sim.session().transition(&[false], &[true]);
        // y is logically constant 0, but the race must cost energy: either
        // an absorbed pulse or a full up-down excursion.
        assert!(
            rec.events.iter().any(|e| e.gate.index() == 2),
            "xor gate should glitch: {:?}",
            rec.events
        );
        assert!(!rec.settled[y.index()]);
    }

    #[test]
    fn inertial_absorption_costs_partial_energy() {
        let mut cfg = quiet_config();
        cfg.absorbed_energy_fraction = 0.5;
        // y = a ∧ ¬a: on a rising edge the AND sees (1, 1) for one inverter
        // delay (6 ps) — shorter than its own 13 ps delay, so the scheduled
        // rise is revoked before completing: an absorbed glitch.
        let mut b = NetlistBuilder::new("absorb");
        let a = b.input("a");
        let na = b.not(a);
        let y = b.gate(CellType::And2, &[a, na]);
        b.output("y", y);
        let nl = b.finish().expect("valid");
        let sim = Simulator::with_derating(&nl, &cfg, &Derating::fresh(&nl));
        let rec = sim.session().transition(&[false], &[true]);
        assert!(!rec.settled[y.index()], "y is logically constant 0");
        assert_eq!(rec.absorbed_glitches(), 1, "{:?}", rec.events);
        let absorbed: f64 = rec
            .events
            .iter()
            .filter(|e| e.absorbed)
            .map(|e| e.energy_fj)
            .sum();
        assert!(absorbed > 0.0);
        // With absorption cost disabled the glitch is free.
        let free = Simulator::new(
            &nl,
            &SimConfig {
                absorbed_energy_fraction: 0.0,
                ..quiet_config()
            },
        );
        let rec_free = free.session().transition(&[false], &[true]);
        assert_eq!(rec_free.absorbed_glitches(), 0);
    }

    #[test]
    fn capture_has_configured_shape_and_energy() {
        let mut b = NetlistBuilder::new("buf3");
        let a = b.input("a");
        let mut n = a;
        for _ in 0..3 {
            n = b.buf(n);
        }
        b.output("y", n);
        let nl = b.finish().expect("valid");
        let sim = Simulator::new(&nl, &quiet_config());
        // Fine sampling (2 ps) so the trapezoidal integral is accurate.
        let sampling = SamplingConfig {
            window_ps: 2000.0,
            samples: 1000,
        };
        let mut session = sim.session();
        let mut trace = Vec::new();
        let mut rng = SmallRng::seed_from_u64(0);
        session.capture_into(&[false], &[true], &sampling, &mut rng, &mut trace);
        assert_eq!(trace.len(), 1000);
        // Integrated power ≈ total energy: Σ p·dt (mW·ps = fJ).
        let rec = session.transition(&[false], &[true]);
        let integral: f64 = trace.iter().sum::<f64>() * sampling.period_ps();
        let energy = rec.total_energy_fj();
        assert!(
            (integral - energy).abs() / energy < 0.25,
            "integral {integral} vs energy {energy}"
        );
    }

    #[test]
    fn noise_changes_samples_but_not_determinism() {
        let mut b = NetlistBuilder::new("inv");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let nl = b.finish().expect("valid");
        let mut cfg = quiet_config();
        cfg.noise_mw = 0.01;
        let sim = Simulator::new(&nl, &cfg);
        let mut session = sim.session();
        let capture = |session: &mut CaptureSession<'_>, seed: u64| {
            let mut trace = Vec::new();
            let mut rng = SmallRng::seed_from_u64(seed);
            let sampling = SamplingConfig::default();
            session.capture_into(&[false], &[true], &sampling, &mut rng, &mut trace);
            trace
        };
        let t1 = capture(&mut session, 1);
        let t2 = capture(&mut session, 1);
        assert_eq!(t1, t2, "same noise seed → same samples");
        let t3 = capture(&mut session, 2);
        assert_ne!(t1, t3, "noise must reach the samples");
    }

    #[test]
    fn derating_slows_and_weakens() {
        let mut b = NetlistBuilder::new("inv");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let nl = b.finish().expect("valid");
        let cfg = quiet_config();
        let fresh = Simulator::new(&nl, &cfg);
        let aged =
            Simulator::with_derating(&nl, &cfg, &Derating::from_factors(vec![1.2], vec![0.9]));
        let rf = fresh.session().transition(&[false], &[true]);
        let ra = aged.session().transition(&[false], &[true]);
        assert!(ra.settle_time_ps() > rf.settle_time_ps());
        assert!(ra.total_energy_fj() < rf.total_energy_fj());
    }
}
