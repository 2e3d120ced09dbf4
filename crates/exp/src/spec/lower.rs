//! Lowering: [`RunSpec`] scenarios onto the runtime's own builders.
//!
//! The spec layer adds no execution machinery of its own — a cluster spec
//! becomes a [`ClusterConfig`], a loop spec a reference schedule for the
//! epoch-loop drivers — so a spec-driven
//! run is the *same* run the builder-driven code path performs, and the
//! runtime configs' own `validate` covers topology bounds and app names.

use mimo_core::engine::ReferenceStep;
use mimo_fleet::ClusterConfig;
use mimo_linalg::Vector;
use mimo_sim::llc::LlcConfig;
use serde::de::{DeError, DeResult};

use super::model::{ClusterSpec, LlcSpec, LoopSpec};

impl LlcSpec {
    fn lower(&self, cores: usize) -> LlcConfig {
        let mut llc = LlcConfig::for_cores(cores).total_ways(self.total_ways);
        if let Some(s) = self.sensitivity {
            llc = llc.sensitivity(s);
        }
        llc
    }
}

impl ClusterSpec {
    /// Builds the [`ClusterConfig`] this spec describes and runs the
    /// runtime's own validation, so `mimo-exp validate` rejects the same
    /// specs `run` would. `shards_override` carries the CLI `--shards`
    /// flag.
    ///
    /// # Errors
    ///
    /// [`DeError`] under the `cluster` key path when the runtime rejects
    /// the configuration (bad topology, unknown app, …).
    pub fn lower(
        &self,
        epochs_override: Option<usize>,
        shards_override: Option<usize>,
    ) -> DeResult<ClusterConfig> {
        let mut cfg = ClusterConfig::new(self.chips, self.cores_per_chip)
            .shards(shards_override.unwrap_or(self.shards))
            .epochs(epochs_override.unwrap_or(self.epochs))
            .seed(self.seed)
            .input_set(self.input_set)
            .apps(self.apps.clone())
            .fault_rate(self.fault_rate)
            .banked(self.banked);
        if let Some(cap) = self.power_cap {
            cfg = cfg.power_cap(cap);
        }
        if let Some(policy) = self.policy {
            cfg = cfg.chip_policy(policy);
        }
        if let Some(t) = self.targets {
            cfg = cfg.base_targets(t);
        }
        if let Some(llc) = &self.llc {
            cfg = cfg.llc_contention(llc.lower(self.cores_per_chip));
        }
        for fault in &self.faults {
            if fault.chip >= self.chips {
                return Err(DeError::at(
                    "cluster.faults",
                    0,
                    format!(
                        "fault names chip {} but the cluster has {}",
                        fault.chip, self.chips
                    ),
                ));
            }
            cfg = cfg.core_fault(fault.chip, fault.core, fault.spec);
        }
        cfg.validate()
            .map_err(|e| DeError::at("cluster", 0, e.to_string()))?;
        Ok(cfg)
    }
}

impl LoopSpec {
    /// The reference schedule this spec's phases describe.
    pub fn schedule(&self) -> Vec<ReferenceStep> {
        self.phases
            .iter()
            .map(|p| ReferenceStep {
                epoch: p.epoch,
                targets: Vector::from_slice(&[p.ips, p.power]),
            })
            .collect()
    }

    /// Validates the workload name against the catalog (the loop kind
    /// bypasses `ClusterConfig`, which would otherwise do this).
    ///
    /// # Errors
    ///
    /// [`DeError`] at `loop.app` for an unknown workload.
    pub fn check_app(&self) -> DeResult<()> {
        crate::setup::try_plant(&self.app, self.input_set, self.seed)
            .map(drop)
            .map_err(|e| DeError::at("loop.app", 0, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::super::model::{CoreFault, PhaseSpec};
    use super::*;
    use mimo_fleet::ArbitrationPolicy;
    use mimo_sim::fault::{FaultKind, FaultSpec};
    use mimo_sim::InputSet;

    fn cluster_spec() -> ClusterSpec {
        ClusterSpec {
            chips: 1,
            cores_per_chip: 4,
            shards: 1,
            epochs: 100,
            seed: 7,
            power_cap: Some(4.0),
            policy: Some(ArbitrationPolicy::Uniform),
            input_set: InputSet::FreqCache,
            apps: vec!["astar".into()],
            targets: Some([2.5, 1.5]),
            fault_rate: 0.0,
            faults: vec![],
            llc: Some(LlcSpec {
                total_ways: 16,
                sensitivity: None,
            }),
            banked: true,
        }
    }

    #[test]
    fn cluster_lowers_onto_the_builder() {
        let cfg = cluster_spec().lower(None, None).unwrap();
        assert_eq!((cfg.n_chips, cfg.cores_per_chip), (1, 4));
        assert_eq!(cfg.cluster_power_cap_w, 4.0);
        assert_eq!(cfg.chip_policy, ArbitrationPolicy::Uniform);
        assert_eq!(cfg.base_targets, [2.5, 1.5]);
        assert_eq!(cfg.llc.unwrap().total_ways, 16);
        // The overrides win over the spec's own counts.
        let cfg = cluster_spec().lower(Some(9), Some(1)).unwrap();
        assert_eq!((cfg.epochs, cfg.shards), (9, 1));
    }

    #[test]
    fn cluster_defaults_stay_the_runtime_defaults() {
        let mut spec = cluster_spec();
        spec.power_cap = None;
        spec.policy = None;
        spec.targets = None;
        spec.llc = None;
        spec.apps = vec![];
        let cfg = spec.lower(None, None).unwrap();
        let default = ClusterConfig::new(1, 4);
        assert_eq!(cfg.cluster_power_cap_w, default.cluster_power_cap_w);
        assert_eq!(cfg.chip_policy, default.chip_policy);
        assert_eq!(cfg.base_targets, default.base_targets);
        assert_eq!(cfg.llc, None);
    }

    #[test]
    fn unknown_app_fails_at_lowering() {
        let mut spec = cluster_spec();
        spec.apps = vec!["no-such-app".into()];
        let err = spec.lower(None, None).unwrap_err();
        assert_eq!(err.path, "cluster");
        assert!(err.msg.contains("no-such-app"), "{err}");
    }

    #[test]
    fn cluster_fault_chip_bound_is_checked() {
        let mut spec = cluster_spec();
        spec.chips = 2;
        spec.faults = vec![CoreFault {
            chip: 5,
            core: 0,
            spec: FaultSpec {
                kind: FaultKind::PowerSpike { factor: 3.0 },
                start_epoch: 0,
                duration: 1,
            },
        }];
        let err = spec.lower(None, None).unwrap_err();
        assert!(err.msg.contains("chip 5"), "{err}");
    }

    #[test]
    fn loop_schedule_and_app_check() {
        let spec = LoopSpec {
            app: "astar".into(),
            input_set: InputSet::FreqCache,
            governor: super::super::model::GovernorKind::Mimo,
            seed: 1,
            epochs: 10,
            phases: vec![
                PhaseSpec {
                    epoch: 0,
                    ips: 3.0,
                    power: 1.9,
                },
                PhaseSpec {
                    epoch: 5,
                    ips: 2.0,
                    power: 1.2,
                },
            ],
        };
        spec.check_app().unwrap();
        let sched = spec.schedule();
        assert_eq!(sched.len(), 2);
        assert_eq!(sched[1].epoch, 5);
        assert_eq!(sched[1].targets[1], 1.2);
        let mut bad = spec;
        bad.app = "not-an-app".into();
        assert_eq!(bad.check_app().unwrap_err().path, "loop.app");
    }
}
