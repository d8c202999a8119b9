//! P2P overlay design under selfish rewiring (the paper's third motivating
//! scenario, §1.1).
//!
//! An overlay operator deploys a *regular* degree-k topology — every peer
//! imitates the same link pattern, which keeps monitoring and link-state
//! dissemination simple. Peers then hack the client and rewire selfishly.
//! Theorem 5 predicts the regular design cannot be stable; this example
//! watches the overlay degrade under selfish churn and compares against the
//! Forest of Willows — stable by construction, but irregular.
//!
//! Two paper facts drive what is measured:
//!
//! * **Theorem 5**: every large regular topology admits a profitable
//!   unilateral rewiring — the designed overlay is not an equilibrium;
//! * **§4.3 / Figure 4**: uniform BBC games are not potential games, so
//!   best-response churn need not settle at all. At this scale it indeed
//!   does not (a half-million-step probe finds no equilibrium), so the
//!   example runs a fixed rewiring budget and reports the network state
//!   mid-churn — exactly what an operator of a live overlay would observe.
//!
//! Pass a peer count to scale up (the `e13` experiment sweeps the same
//! family to 256 and 512 peers with resumable checkpoints), or `--churn` to
//! watch peers *join and leave* while the survivors re-optimize — the churn
//! runtime of the `e14` experiment, driven interactively:
//!
//! ```text
//! cargo run --release --example p2p_overlay                   # 64 peers (default)
//! cargo run --release --example p2p_overlay -- 256            # 256 peers
//! cargo run --release --example p2p_overlay -- 64 --churn     # + membership churn
//! ```

use bbc::prelude::*;
use bbc_graph::diameter::eccentricity;

fn main() -> Result<()> {
    // The operator's design: an n-peer circulant with offsets {1, 5} —
    // every peer links its successor and the peer 5 ahead. The peer count
    // is CLI-tunable; 64 keeps the default run a few seconds.
    let mut peers: u64 = 64;
    let mut churn_mode = false;
    for arg in std::env::args().skip(1) {
        if arg == "--churn" {
            churn_mode = true;
        } else {
            peers = arg.parse().expect("peer count must be a number");
        }
    }
    let overlay = CayleyGraph::circulant(peers, &[1, 5]).expect("valid circulant");
    let spec = overlay.spec();
    let designed = overlay.configuration();

    let designed_cost = social_cost(&spec, &designed);
    let designed_diam = eccentricity(&designed.to_graph(&spec)).diameter();
    println!(
        "designed {peers}-peer circulant: social cost {designed_cost}, diameter {designed_diam:?}"
    );

    // A single selfish peer already has a profitable rewiring (Theorem 5).
    let report = StabilityChecker::new(&spec).check(&designed)?;
    match report.deviations.first() {
        Some(dev) => println!(
            "peer {} can cut its cost {} -> {} by rewiring to {:?}",
            dev.node, dev.current_cost, dev.improved_cost, dev.strategy
        ),
        None => println!("unexpectedly stable"),
    }

    // Let everyone rewire selfishly for a fixed budget of best-response
    // offers. The churn does not converge at this scale (§4.3: BBC games
    // are not potential games), so the interesting quantity is the steady
    // reshaping, not a terminal state.
    // Budget: the classic half-million-probe-backed 15k offers at the
    // default 64 peers; four round-robin rounds at explicitly larger
    // scales (per-step cost grows ~quadratically with the peer count —
    // e13 is the checkpointed way to go big).
    let budget = if peers <= 64 { 15_000 } else { 4 * peers };
    let mut walk = Walk::new(&spec, designed).detect_cycles(false);
    let outcome = walk.run(budget)?;
    let selfish = walk.config();
    let selfish_cost = social_cost(&spec, selfish);
    let selfish_diam = eccentricity(&selfish.to_graph(&spec)).diameter();
    println!(
        "after {} selfish rewirings ({outcome:?}): social cost {selfish_cost}, diameter {selfish_diam:?}",
        walk.stats().moves
    );
    // The stable-but-irregular alternative: a Forest of Willows of similar
    // scale and degree (k=2, h=4: 62 nodes).
    let willow = ForestOfWillows::new(2, 4, 0).expect("valid willow");
    let wspec = willow.spec();
    let wcfg = willow.configuration();
    println!(
        "forest of willows (n={}): stable = {}, social cost {} ({:.2}x lower bound)",
        willow.node_count(),
        StabilityChecker::new(&wspec).is_stable(&wcfg)?,
        social_cost(&wspec, &wcfg),
        price_ratio(&wspec, &wcfg),
    );

    // `--churn`: the live-overlay workload — peers join and leave while
    // the survivors re-optimize (the e14 experiment's runtime, one event
    // log at a time).
    if churn_mode {
        println!("\n--- membership churn (seeded joins/leaves, {peers} peer slots) ---");
        let overlay = CayleyGraph::circulant(peers, &[1, 5]).expect("valid circulant");
        let spec = overlay.spec();
        let cfg = ChurnConfig {
            seed: peers,
            events: 6,
            min_live: (peers / 2) as usize,
            settle_steps: peers,
            ..ChurnConfig::default()
        };
        let mut sim = ChurnSim::new(&spec, overlay.configuration(), cfg);
        let report = sim.run()?;
        for (i, e) in report.events.iter().enumerate() {
            let what = match &e.event {
                ChurnEvent::Leave { node } => format!("peer {node} left"),
                ChurnEvent::Join { node, strategy } => {
                    format!("peer {node} joined buying {strategy:?}")
                }
                ChurnEvent::Shock { node, .. } => format!("peer {node} was rewired by force"),
            };
            println!(
                "event {i}: {what}; cost {} -> {} (spike) -> {} after {} steps, \
                 {} pairs cut, {} still cut",
                e.cost_before,
                e.cost_spike,
                e.cost_settled,
                e.steps_to_requilibrate,
                e.disconnected_after_event,
                e.disconnected_settled
            );
        }
        println!(
            "churn digest {:016x}: {} live peers, social cost {}, every disconnection healed: {}",
            report.trajectory_digest,
            report.final_live,
            report.final_social_cost,
            report.all_exposure_healed()
        );
    }

    println!(
        "\nmoral (paper §4.2/§4.3): to keep a P2P overlay stable you must give up regularity —\n\
         every large regular topology invites selfish rewiring, the churn it triggers need\n\
         never settle, while the stable willow is structurally lopsided."
    );
    Ok(())
}
