#![warn(missing_docs)]

//! # weber-entity
//!
//! The canonical-entity layer that sits *above* partitioning. A
//! partition answers "which mentions co-refer right now"; this crate
//! answers "which **entity** is that, and why":
//!
//! - **Stable u64 IDs.** [`EntityStore::materialize`] maps the current
//!   clusters onto the previous entity table by maximum mention overlap,
//!   so a re-partition (a checkpoint retrain rebuilding the clustering
//!   from scratch) keeps every surviving entity's ID. Clusters that match
//!   nothing resurrect a retired ID when they overlap one, and mint a
//!   fresh ID otherwise.
//! - **Reversible `SAME_AS` links.** A merge is an *edge between entity
//!   IDs* ([`EntityStore::assert_link`]), not a destructive union: the
//!   absorbed entity is retired with its mention set intact, and
//!   retracting the link ([`EntityStore::retract_link`]) splits the
//!   entity again — the largest fragment keeps the surviving ID, other
//!   fragments take their retired IDs back by overlap.
//! - **Per-mention provenance.** Every membership records which document
//!   produced it, whether it arrived as a labelled seed or a streamed
//!   ingest, and *why it sits in this entity* — plain clustering
//!   evidence, a `SAME_AS` edge, or a constraint split
//!   ([`Provenance`]).
//! - **Declarative global constraints.** Cannot-link pairs (including
//!   the implicit ones between differently-labelled seed mentions),
//!   one-to-one attribute mappings, and type-boundary rules
//!   ([`Constraint`]) are enforced *during* materialization:
//!   a cluster containing a forbidden pair is split greedily so that no
//!   entity violates a constraint, and every violation found (plus every
//!   `SAME_AS` link a constraint vetoes) is counted in the
//!   [`MaterializeReport`] the caller surfaces on the wire.
//!
//! The whole store serialises to a flat [`TableState`] record, which
//! `weber-stream` persists next to the per-name clustering state.

mod constraint;
mod state;
mod store;

pub use constraint::{Constraint, ConstraintSet};
pub use state::{
    EntityState, LinkState, OneToOneState, PairState, TableState, TypeBoundaryState, TypedDocState,
    ENTITY_FILE_MAGIC, ENTITY_FILE_MIN_VERSION, ENTITY_FILE_VERSION,
};
pub use store::{
    Entity, EntityError, EntityStore, MaterializeReport, MentionOrigin, Provenance, SameAsLink, Via,
};
