//! Ring placement properties: the load balance and minimal-remap
//! guarantees the fleet's cache locality rests on.
//!
//! Sampling is seeded, so these are exact, reproducible checks — the
//! final test pins hard counts for one fixed seed to catch any silent
//! change to the placement function (which would re-shuffle every
//! deployed fleet's cache placement and must be a deliberate,
//! domain-tag-bumping decision).

use wave_rng::{Rng, SplitMix64};
use wave_serve::ring::Ring;

/// `k` seeded fingerprints spanning the full u128 space.
fn sample_fps(seed: u64, k: usize) -> Vec<u128> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..k)
        .map(|_| ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128)
        .collect()
}

fn shares(ring: &Ring, fps: &[u128]) -> Vec<(u32, usize)> {
    let mut counts: Vec<(u32, usize)> = ring.nodes().iter().map(|n| (*n, 0)).collect();
    for fp in fps {
        let owner = ring.owner(*fp);
        counts
            .iter_mut()
            .find(|(n, _)| *n == owner)
            .expect("owner must be a member")
            .1 += 1;
    }
    counts
}

#[test]
fn per_node_share_stays_within_15_percent_of_uniform() {
    let fps = sample_fps(0xA11CE, 20_000);
    for n in 2..=16u32 {
        let ring = Ring::new(0..n);
        let fair = fps.len() as f64 / n as f64;
        for (node, count) in shares(&ring, &fps) {
            let dev = (count as f64 - fair).abs() / fair;
            assert!(
                dev <= 0.15,
                "{n} nodes: node {node} owns {count} of {} ({:.1}% from uniform {fair:.0})",
                fps.len(),
                dev * 100.0
            );
        }
    }
}

#[test]
fn adding_one_node_steals_at_most_its_fair_share_and_only_for_itself() {
    let fps = sample_fps(0xB0B, 10_000);
    for n in 2..=16u32 {
        let before = Ring::new(0..n);
        let mut after = before.clone();
        after.add_node(n);
        let mut moved = 0usize;
        for fp in &fps {
            let (old, new) = (before.owner(*fp), after.owner(*fp));
            if old != new {
                moved += 1;
                // Consistent hashing's defining property: a new node
                // only steals keys *for itself* — no third-party churn.
                assert_eq!(new, n, "fp moved {old}→{new}, not to the new node {n}");
            }
        }
        let fair = fps.len() / (n as usize + 1);
        // The new node's share is ~K/(n+1) with vnode variance; allow
        // the same 15% band the distribution test allows, plus slack
        // for small shares at large n.
        let bound = fair + fair / 4 + 64;
        assert!(
            moved <= bound,
            "{n}→{} nodes moved {moved} of {} fingerprints (bound {bound})",
            n + 1,
            fps.len()
        );
        assert!(moved > 0, "a new node must take some share");
    }
}

#[test]
fn removing_one_node_reassigns_only_that_node_s_keys() {
    let fps = sample_fps(0xDEAD, 10_000);
    for n in 3..=16u32 {
        let before = Ring::new(0..n);
        let mut after = before.clone();
        after.remove_node(n - 1);
        for fp in &fps {
            let (old, new) = (before.owner(*fp), after.owner(*fp));
            if old == n - 1 {
                assert_ne!(new, n - 1, "dead node still owns a fingerprint");
            } else {
                // Keys not owned by the dead node must not move at all:
                // this is what keeps the survivors' caches warm.
                assert_eq!(old, new, "survivor-owned fp churned on unrelated death");
            }
        }
    }
}

/// Hard-pinned counts for one seed: any diff here means the placement
/// function changed and every deployed ring would re-shuffle. Bump
/// `RING_DOMAIN` if that is intended.
#[test]
fn placement_is_pinned_for_a_fixed_seed() {
    let fps = sample_fps(0xFEED, 4_096);
    let three = Ring::new(0..3);
    assert_eq!(shares(&three, &fps), vec![(0, 1338), (1, 1382), (2, 1376)]);

    let mut four = three.clone();
    four.add_node(3);
    let moved = fps
        .iter()
        .filter(|fp| three.owner(**fp) != four.owner(**fp))
        .count();
    assert_eq!(
        moved, 947,
        "K/n for K=4096, n=4 is 1024; vnode variance pins 947"
    );
    assert_eq!(
        shares(&four, &fps),
        vec![(0, 1072), (1, 964), (2, 1113), (3, 947)]
    );
}
