//! Fleet: replicate one synthesized controller across a 16-core chip with a
//! shared power budget, then halve the budget and watch the arbiter pull
//! chip power down (the README's "Many-core fleets" section, runnable).
//! A single chip is a one-chip cluster.
//!
//! ```text
//! cargo run --release --example fleet
//! ```

use mimo_arch::core::design::DesignFlow;
use mimo_arch::fleet::{ArbitrationPolicy, ClusterConfig, ClusterRunner};
use mimo_arch::sim::{InputSet, ProcessorBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Synthesize one controller, exactly as for a single core.
    let mut plant = ProcessorBuilder::new()
        .app("namd")
        .input_set(InputSet::FreqCache)
        .build()?;
    let controller = DesignFlow::two_input().run(&mut plant)?.into_controller();

    // 2. Replicate it across the 16 cores of one chip under a 19.2 W cap.
    let run = |cap_w: f64| {
        let cfg = ClusterConfig::new(1, 16)
            .epochs(1000)
            .power_cap(cap_w)
            .chip_policy(ArbitrationPolicy::Proportional);
        ClusterRunner::with_shared_controller(cfg, &controller)?
            .run()
            .map(|mut stats| stats.per_chip.remove(0))
    };
    let stats = run(19.2)?;
    println!(
        "16 cores, 19.2 W cap: chip power {:.2} W avg / {:.2} W peak, \
         {:.1}% IPS err, digest {:016x}",
        stats.avg_chip_power_w,
        stats.peak_chip_power_w,
        stats.agg_ips_err_pct,
        stats.digest()
    );

    // 3. Same chip, half the budget: the arbiter lowers every core's
    //    references and the LQG loops follow them down.
    let halved = run(9.6)?;
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
