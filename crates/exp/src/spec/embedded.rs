//! Compile-time copies of the checked-in `specs/` files.
//!
//! Subcommand aliases (`mimo-exp fig06`, …) resolve to these embedded
//! copies so the binary behaves identically from any working directory;
//! a test pins each embedded copy byte-identical to its on-disk file, so
//! the alias and `mimo-exp run specs/fig06.toml` can never drift apart.

/// One embedded spec: CLI alias, repo-relative path, and file contents.
#[derive(Debug, Clone, Copy)]
pub struct EmbeddedSpec {
    /// Subcommand alias resolving to this spec (`fig06`, `tab-opt`, …).
    pub alias: &'static str,
    /// Repo-relative path of the on-disk copy.
    pub path: &'static str,
    /// The spec's TOML text.
    pub text: &'static str,
}

macro_rules! embed {
    ($alias:literal, $file:literal) => {
        EmbeddedSpec {
            alias: $alias,
            path: concat!("specs/", $file),
            text: include_str!(concat!("../../../../specs/", $file)),
        }
    };
}

/// Every checked-in spec, in `mimo-exp all` order (the spec-only
/// scenarios last).
pub const EMBEDDED: [EmbeddedSpec; 14] = [
    embed!("fig06", "fig06.toml"),
    embed!("fig07", "fig07.toml"),
    embed!("fig08", "fig08.toml"),
    embed!("fig09", "fig09.toml"),
    embed!("fig10", "fig10.toml"),
    embed!("fig11", "fig11.toml"),
    embed!("fig12", "fig12.toml"),
    embed!("tab-opt", "tab_opt.toml"),
    embed!("fleet-scale", "fleet_scale.toml"),
    embed!("cluster-scale", "cluster_scale.toml"),
    embed!("fault-sweep", "fault_sweep.toml"),
    embed!("phase-step", "phase_step.toml"),
    embed!("cluster-fault", "cluster_fault.toml"),
    embed!("cluster-bank", "cluster_bank.toml"),
];

/// Looks an embedded spec up by its CLI alias.
pub fn by_alias(alias: &str) -> Option<&'static EmbeddedSpec> {
    EMBEDDED.iter().find(|s| s.alias == alias)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_embedded_spec_parses_and_matches_its_alias() {
        for e in &EMBEDDED {
            let spec =
                crate::spec::parse_str(e.text).unwrap_or_else(|err| panic!("{}: {err}", e.path));
            // The spec's name is its file stem, so alias ↔ file ↔ name
            // stay mechanically connected.
            assert_eq!(spec.name, e.alias.replace('-', "_"), "{}", e.path);
        }
    }
}
