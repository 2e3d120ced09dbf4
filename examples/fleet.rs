//! Fleet: replicate one synthesized controller across a 16-core chip with a
//! shared power budget, then halve the budget and watch the arbiter pull
//! chip power down (the README's "Many-core fleets" section, runnable).
//!
//! ```text
//! cargo run --release --example fleet
//! ```

use mimo_arch::core::design::DesignFlow;
use mimo_arch::fleet::{ArbitrationPolicy, FleetConfig, FleetRunner};
use mimo_arch::sim::{InputSet, ProcessorBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Synthesize one controller, exactly as for a single core.
    let mut plant = ProcessorBuilder::new()
        .app("namd")
        .input_set(InputSet::FreqCache)
        .build()?;
    let controller = DesignFlow::two_input().run(&mut plant)?.into_controller();

    // 2. Replicate it across 16 cores under a 19.2 W chip cap.
    let cfg = |cap_w: f64| {
        FleetConfig::new(16)
            .epochs(1000)
            .chip_power_cap(cap_w)
            .policy(ArbitrationPolicy::Proportional)
    };
    let stats = FleetRunner::with_shared_controller(cfg(19.2), &controller)?.run()?;
    println!(
        "16 cores, 19.2 W cap: chip power {:.2} W avg / {:.2} W peak, \
         {:.1}% IPS err, {:.0} epochs/s, digest {:016x}",
        stats.avg_chip_power_w,
        stats.peak_chip_power_w,
        stats.agg_ips_err_pct,
        stats.epochs_per_sec,
        stats.digest()
    );

    // 3. Same fleet, half the budget: the arbiter lowers every core's
    //    references and the LQG loops follow them down.
    let halved = FleetRunner::with_shared_controller(cfg(9.6), &controller)?.run()?;
    assert!(
        halved.avg_chip_power_w < stats.avg_chip_power_w,
        "halving the cap must lower chip power"
    );
    println!(
        "16 cores,  9.6 W cap: chip power {:.2} W avg / {:.2} W peak, \
         {:.1}% IPS err",
        halved.avg_chip_power_w, halved.peak_chip_power_w, halved.agg_ips_err_pct
    );
    Ok(())
}
