//! wave-fleet: a sharded multi-node verification fleet.
//!
//! One `wave-serve` node verifies one request at a time per worker and
//! caches what it proved. This crate scales that out: a front-end
//! [`router::Router`] consistent-hashes the **128-bit canonical content
//! fingerprint** of every request onto N nodes (a
//! [`wave_serve::ring::Ring`] of virtual points), so identical content always lands on the same node
//! and the engine's request coalescing becomes fleet-wide — a
//! thundering herd on one hot property costs exactly one verification
//! no matter how many front-end clients stampede.
//!
//! Completed results replicate by **shipping the journal**: the
//! [`shipper::Shipper`] tails each node's CRC-framed NDJSON cache
//! journal and re-plays new complete lines into every other node
//! through a validating `replicate` wire command. Because the journal
//! *is* the replication log, there is no second serialization format to
//! drift, and a node kill is survivable: the router re-ranges the ring
//! (epoch bump) and replays the dead node's shipped journal into its
//! successors, so the fleet keeps every verdict the dead node ever
//! persisted.
//!
//! The invariant hierarchy mirrors the rest of the workspace: a fleet
//! may lose *cached* work (a dropped ship, a torn journal tail) — it
//! re-verifies cold — but it must never serve a wrong verdict, install
//! a corrupted replay, or hang a client.
//!
//! Fleets come in two shapes: [`local::LocalFleet`] (in-process nodes,
//! for benchmarks and counter-level tests) and [`local::ProcessFleet`]
//! (child processes, for real-`SIGKILL` drills). The `wave-fleet`
//! binary exposes `node` (one fleet member), `up` (boot a whole fleet
//! behind one front-end port), and `flap` (the kill/restart chaos
//! campaign).
//!
//! Membership is a **heartbeat plane** ([`heartbeat::Heartbeat`]): the
//! router probes every member's cheap `health` command on a jittered
//! interval, suspects after K missed beats, and confirms with one
//! direct probe before any kill. Restarted nodes re-enter through
//! [`router::Router::join`] — peers' journals replay in *before* the
//! ring re-ranges, so a re-join never loses a verdict and never
//! re-verifies already-paid content. The epoch-tagged
//! [`wave_serve::view::MemberView`] the router pushes to every node is
//! the full routing input, which is what lets
//! [`wave_serve::client::RoutedClient`] compute placement locally and
//! survive the router's death entirely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flap;
pub mod heartbeat;
pub mod local;
pub mod router;
pub mod shipper;
