//! The per-name canonical entity table and its materialization rules.
//!
//! Sorting aside, one materialization pass costs O(n + p + Σ_c k_c²),
//! plus k_c·|c| for each cluster c that splits: n mentions in the
//! partition, p in the previous table (live and retired), and k_c
//! *constrained* mentions in cluster c (seed pages and pages a constraint
//! names). Stable IDs are matched through a document → previous-entity
//! index, which counts each cluster's overlaps in one walk over its
//! members. Only a pair of constrained mentions can be forbidden, so the
//! split check tests those pairs alone, and a split cluster scans its
//! fragments once per constrained member. The pass is linear only while
//! the constrained share of a name's pages is low.

use crate::constraint::{Constraint, ConstraintSet};

/// How a mention entered the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MentionOrigin {
    /// Part of the labelled seed batch, with its seed label.
    Seed {
        /// The label the operator assigned in the seed batch.
        label: u32,
    },
    /// Streamed in through `ingest`.
    Ingest,
}

/// Why a mention sits in its entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// Plain clustering evidence: the partition put it here.
    Partition,
    /// Its cluster was merged into this entity through an asserted
    /// `SAME_AS` link between the two entity IDs.
    SameAs {
        /// One endpoint of the link.
        a: u64,
        /// The other endpoint.
        b: u64,
    },
    /// Its raw cluster contained a constraint violation and was split;
    /// this membership is the constraint-aware re-placement.
    Split,
}

impl Via {
    /// Stable wire token.
    pub fn token(&self) -> &'static str {
        match self {
            Via::Partition => "partition",
            Via::SameAs { .. } => "same-as",
            Via::Split => "split",
        }
    }
}

/// One mention's membership record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Document index within the name's block.
    pub doc: usize,
    /// Seed or ingest origin.
    pub origin: MentionOrigin,
    /// What produced this membership.
    pub via: Via,
}

/// A canonical entity: a stable ID and its member mentions with
/// provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entity {
    /// Stable identifier, unique within the name (never reused for a
    /// different real-world entity while the store lives).
    pub id: u64,
    /// Member mentions, ascending.
    pub mentions: Vec<usize>,
    /// One record per mention, aligned with `mentions`.
    pub provenance: Vec<Provenance>,
}

/// An asserted (active) `SAME_AS` edge between two entity IDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SameAsLink {
    /// One endpoint.
    pub a: u64,
    /// The other endpoint.
    pub b: u64,
}

/// What one materialization pass did, surfaced on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaterializeReport {
    /// Entities in the resulting table.
    pub entities: usize,
    /// Extra fragments produced by constraint-aware splitting (a
    /// cluster split three ways counts 2).
    pub splits: u64,
    /// Constraint violations found: forbidden pairs inside raw
    /// clusters, vetoed `SAME_AS` unions, and unmet one-to-one merges.
    pub violations: u64,
    /// Active `SAME_AS` links whose union a constraint vetoed.
    pub vetoed_links: u64,
    /// Entities that kept their ID from the previous table.
    pub retained_ids: usize,
    /// Entities that took a retired ID back.
    pub resurrected_ids: usize,
    /// Entities that minted a fresh ID.
    pub fresh_ids: usize,
}

/// Errors from `SAME_AS` link operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntityError {
    /// The referenced entity ID is not in the live table.
    UnknownEntity(u64),
    /// No active link exists between the two IDs.
    UnknownLink(u64, u64),
}

impl std::fmt::Display for EntityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntityError::UnknownEntity(id) => write!(f, "entity {id} does not exist"),
            EntityError::UnknownLink(a, b) => {
                write!(f, "no active same_as link between entities {a} and {b}")
            }
        }
    }
}

impl std::error::Error for EntityError {}

impl EntityError {
    /// Stable machine-readable token, mirroring the stream error kinds.
    pub fn kind(&self) -> &'static str {
        match self {
            EntityError::UnknownEntity(_) => "unknown-entity",
            EntityError::UnknownLink(..) => "unknown-link",
        }
    }
}

/// The canonical entity table for one name.
///
/// The store never clusters anything itself: the caller hands it the
/// current partition's clusters plus each mention's origin, and the
/// store owns everything *above* that — stable IDs, constraint
/// enforcement, `SAME_AS` unions, provenance, and the retired-ID pool
/// that makes link retraction reversible.
#[derive(Debug, Clone)]
pub struct EntityStore {
    name: String,
    next_id: u64,
    entities: Vec<Entity>,
    /// Retired entities: absorbed by a `SAME_AS` union or dissolved by a
    /// re-partition, kept with their last-known mention sets so a later
    /// materialization can hand their IDs back by overlap.
    retired: Vec<Entity>,
    links: Vec<SameAsLink>,
    constraints: ConstraintSet,
}

impl EntityStore {
    /// An empty store for `name`. IDs start at 1.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            next_id: 1,
            entities: Vec::new(),
            retired: Vec::new(),
            links: Vec::new(),
            constraints: ConstraintSet::new(),
        }
    }

    /// The name this table belongs to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The live entities, ordered by smallest mention.
    pub fn entities(&self) -> &[Entity] {
        &self.entities
    }

    /// The live entity with ID `id`, if any.
    pub fn entity(&self, id: u64) -> Option<&Entity> {
        self.entities.iter().find(|e| e.id == id)
    }

    /// Active `SAME_AS` links.
    pub fn links(&self) -> &[SameAsLink] {
        &self.links
    }

    /// The registered constraint set.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// Register a constraint (deduplicated); returns whether the set
    /// grew. Takes effect on the next materialization.
    pub fn add_constraint(&mut self, constraint: Constraint) -> bool {
        self.constraints.add(constraint)
    }

    /// Drop every registered constraint.
    pub fn clear_constraints(&mut self) {
        self.constraints.clear()
    }

    /// Assert a `SAME_AS` link between two *live* entity IDs. Asserting
    /// an already-active link is a no-op. Takes effect on the next
    /// materialization (the caller re-materializes immediately).
    pub fn assert_link(&mut self, a: u64, b: u64) -> Result<(), EntityError> {
        for id in [a, b] {
            if self.entity(id).is_none() {
                return Err(EntityError::UnknownEntity(id));
            }
        }
        if a == b {
            return Ok(());
        }
        if !self.link_active(a, b) {
            self.links.push(SameAsLink { a, b });
        }
        Ok(())
    }

    /// Retract an active `SAME_AS` link (either orientation). The next
    /// materialization splits the merged entity again.
    pub fn retract_link(&mut self, a: u64, b: u64) -> Result<(), EntityError> {
        let before = self.links.len();
        self.links
            .retain(|l| !((l.a == a && l.b == b) || (l.a == b && l.b == a)));
        if self.links.len() == before {
            return Err(EntityError::UnknownLink(a, b));
        }
        Ok(())
    }

    /// True when an active link joins `a` and `b`.
    pub fn link_active(&self, a: u64, b: u64) -> bool {
        self.links
            .iter()
            .any(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
    }

    /// The full forbidden-pair test: registered constraints plus the
    /// implicit cannot-link between differently-labelled seed mentions
    /// (the seed protocol's labels *are* ground-truth distinctions).
    fn forbidden(&self, a: usize, b: usize, origins: &[MentionOrigin]) -> bool {
        if let (Some(MentionOrigin::Seed { label: la }), Some(MentionOrigin::Seed { label: lb })) =
            (origins.get(a), origins.get(b))
        {
            if la != lb {
                return true;
            }
        }
        self.constraints.conflict(a, b).is_some()
    }

    /// Rebuild the entity table from the current partition.
    ///
    /// `clusters` is the partition's cluster list (every mention in
    /// exactly one cluster); `origins[doc]` says how each mention
    /// arrived. The pass runs: constraint-aware splitting → stable-ID
    /// assignment by maximum overlap (live table first, then the
    /// retired pool, then fresh IDs) → `SAME_AS` unions (vetoed when a
    /// constraint forbids the merged entity) → provenance.
    pub fn materialize(
        &mut self,
        clusters: &[Vec<usize>],
        origins: &[MentionOrigin],
    ) -> MaterializeReport {
        let mut report = MaterializeReport::default();

        // 1. Constraint-aware splitting. Only constrained mentions — seed
        // pages and pages some constraint names — can be in a forbidden
        // pair, so pairs are counted and fragments placed over those
        // alone. A raw cluster containing a forbidden pair is re-placed
        // greedily: each mention joins the first fragment it conflicts
        // with nobody in, which for an unconstrained mention is the first.
        let docs = clusters.iter().flatten().max().map_or(0, |&d| d + 1);
        let named = self.constraints.named_mentions(docs);
        let constrained =
            |doc: usize| matches!(origins.get(doc), Some(MentionOrigin::Seed { .. })) || named[doc];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut split_flags: Vec<bool> = Vec::new();
        let mut held: Vec<usize> = Vec::new();
        for cluster in clusters {
            let mut members = cluster.clone();
            members.sort_unstable();
            held.clear();
            held.extend(members.iter().copied().filter(|&d| constrained(d)));
            let mut forbidden_pairs = 0u64;
            for (i, &a) in held.iter().enumerate() {
                for &b in &held[i + 1..] {
                    if self.forbidden(a, b, origins) {
                        forbidden_pairs += 1;
                    }
                }
            }
            report.violations += forbidden_pairs;
            if forbidden_pairs == 0 {
                groups.push(members);
                split_flags.push(false);
                continue;
            }
            let mut fragments: Vec<Vec<usize>> = Vec::new();
            for doc in members {
                let home = if constrained(doc) {
                    fragments.iter().position(|f| {
                        f.iter()
                            .all(|&m| !constrained(m) || !self.forbidden(m, doc, origins))
                    })
                } else {
                    (!fragments.is_empty()).then_some(0)
                };
                match home {
                    Some(f) => fragments[f].push(doc),
                    None => fragments.push(vec![doc]),
                }
            }
            report.splits += fragments.len() as u64 - 1;
            for fragment in fragments {
                groups.push(fragment);
                split_flags.push(true);
            }
        }
        // Deterministic group order regardless of the partition's
        // cluster enumeration.
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by_key(|&g| groups[g][0]);
        let (sorted_groups, sorted_flags): (Vec<_>, Vec<_>) = order
            .into_iter()
            .map(|g| (std::mem::take(&mut groups[g]), split_flags[g]))
            .unzip();
        let groups = sorted_groups;
        let split_flags = sorted_flags;

        // 2. Stable-ID assignment: maximum mention overlap against the
        // previous table, live entities preferred over retired ones,
        // ties broken by lower previous ID then lower group index.
        // Previous slots are numbered live first, then retired, and
        // indexed by the documents they hold, so a group's overlaps are
        // counted in one walk over its members.
        let live = self.entities.len();
        let previous: Vec<&Entity> = self.entities.iter().chain(&self.retired).collect();
        let holders = holders_by_doc(&previous, docs);
        // (overlap, retired?, prev slot, group) for every nonzero pair,
        // group-major, live slots ascending, then retired ascending.
        let mut candidates: Vec<(usize, bool, usize, usize)> = Vec::new();
        let mut overlap = vec![0usize; previous.len()];
        let mut touched: Vec<usize> = Vec::new();
        for (gi, group) in groups.iter().enumerate() {
            for &doc in group {
                for &slot in &holders[doc] {
                    if overlap[slot] == 0 {
                        touched.push(slot);
                    }
                    overlap[slot] += 1;
                }
            }
            touched.sort_unstable();
            for slot in touched.drain(..) {
                let o = std::mem::take(&mut overlap[slot]);
                candidates.push(if slot < live {
                    (o, false, slot, gi)
                } else {
                    (o, true, slot - live, gi)
                });
            }
        }
        candidates.sort_by(|x, y| {
            y.0.cmp(&x.0) // overlap desc
                .then(x.1.cmp(&y.1)) // live before retired
                .then_with(|| {
                    let id = |&(_, retired, pi, _): &(usize, bool, usize, usize)| {
                        if retired {
                            self.retired[pi].id
                        } else {
                            self.entities[pi].id
                        }
                    };
                    id(x).cmp(&id(y))
                })
                .then(x.3.cmp(&y.3))
        });
        let mut group_id: Vec<Option<u64>> = vec![None; groups.len()];
        let mut used_live = vec![false; self.entities.len()];
        let mut used_retired = vec![false; self.retired.len()];
        let mut resurrected: Vec<usize> = Vec::new();
        for (_, is_retired, pi, gi) in candidates {
            if group_id[gi].is_some() {
                continue;
            }
            let used = if is_retired {
                &mut used_retired[pi]
            } else {
                &mut used_live[pi]
            };
            if *used {
                continue;
            }
            *used = true;
            group_id[gi] = Some(if is_retired {
                resurrected.push(pi);
                self.retired[pi].id
            } else {
                self.entities[pi].id
            });
            if is_retired {
                report.resurrected_ids += 1;
            } else {
                report.retained_ids += 1;
            }
        }
        for slot in &mut group_id {
            if slot.is_none() {
                *slot = Some(self.next_id);
                self.next_id += 1;
                report.fresh_ids += 1;
            }
        }
        let mut group_id: Vec<u64> = group_id.into_iter().map(Option::unwrap).collect();
        // IDs handed back leave the retired pool; live entities whose ID
        // found no group retire below.
        resurrected.sort_unstable();
        for (removed, pi) in resurrected.into_iter().enumerate() {
            self.retired.remove(pi - removed);
        }
        let dissolved: Vec<Entity> = std::mem::take(&mut self.entities)
            .into_iter()
            .zip(&used_live)
            .filter(|(_, used)| !**used)
            .map(|(e, _)| e)
            .collect();

        // 3. SAME_AS unions. Links join entity IDs; a union a
        // constraint forbids is vetoed (counted, link kept so the
        // operator can retract it). The surviving ID is the larger
        // side's, ties to the lower ID; the absorbed ID is retired.
        // Per-doc via, seeded from each fragment's split flag and
        // overwritten for mentions that move across a link.
        let max_doc = groups
            .iter()
            .flat_map(|g| g.iter())
            .max()
            .copied()
            .unwrap_or(0);
        let mut doc_via: Vec<Via> = vec![Via::Partition; max_doc + 1];
        for (group, &split) in groups.iter().zip(&split_flags) {
            if split {
                for &doc in group {
                    doc_via[doc] = Via::Split;
                }
            }
        }
        let links = self.links.clone();
        let mut merged_groups = groups;
        for link in &links {
            let locate = |id: u64, merged: &[Vec<usize>], ids: &[u64]| {
                ids.iter()
                    .enumerate()
                    .find_map(|(gi, &gid)| (gid == id && !merged[gi].is_empty()).then_some(gi))
            };
            let (Some(ga), Some(gb)) = (
                locate(link.a, &merged_groups, &group_id),
                locate(link.b, &merged_groups, &group_id),
            ) else {
                continue; // an endpoint is not materialized this pass
            };
            if ga == gb {
                continue;
            }
            let vetoed = merged_groups[ga]
                .iter()
                .filter(|&&a| constrained(a))
                .any(|&a| {
                    merged_groups[gb]
                        .iter()
                        .filter(|&&b| constrained(b))
                        .any(|&b| self.forbidden(a, b, origins))
                });
            if vetoed {
                report.vetoed_links += 1;
                report.violations += 1;
                continue;
            }
            let (survivor, absorbed) = if merged_groups[ga].len() > merged_groups[gb].len()
                || (merged_groups[ga].len() == merged_groups[gb].len()
                    && group_id[ga] <= group_id[gb])
            {
                (ga, gb)
            } else {
                (gb, ga)
            };
            let moved = std::mem::take(&mut merged_groups[absorbed]);
            // Retire the absorbed ID with the mention set it covered.
            self.retired.push(Entity {
                id: group_id[absorbed],
                mentions: moved.clone(),
                provenance: Vec::new(),
            });
            for &doc in &moved {
                doc_via[doc] = Via::SameAs {
                    a: link.a,
                    b: link.b,
                };
            }
            merged_groups[survivor].extend(moved);
            merged_groups[survivor].sort_unstable();
            group_id[absorbed] = group_id[survivor];
        }

        // 4. Rebuild the table with provenance; dissolved live IDs move
        // to the retired pool.
        let mut table: Vec<Entity> = merged_groups
            .into_iter()
            .zip(&group_id)
            .filter(|(group, _)| !group.is_empty())
            .map(|(mentions, &id)| {
                let provenance = mentions
                    .iter()
                    .map(|&doc| Provenance {
                        doc,
                        origin: origins.get(doc).copied().unwrap_or(MentionOrigin::Ingest),
                        via: doc_via[doc],
                    })
                    .collect();
                Entity {
                    id,
                    mentions,
                    provenance,
                }
            })
            .collect();
        table.sort_by_key(|e| e.mentions[0]);
        self.entities = table;
        self.retired.extend(dissolved);
        // The pool keeps one record per ID, the most recent.
        let mut seen = std::collections::HashSet::new();
        let mut live: Vec<u64> = self.entities.iter().map(|e| e.id).collect();
        live.sort_unstable();
        self.retired.reverse();
        self.retired
            .retain(|e| live.binary_search(&e.id).is_err() && seen.insert(e.id));
        self.retired.reverse();

        report.violations += self.unmet_merges();
        report.entities = self.entities.len();
        report
    }

    /// Unmet one-to-one merges over the current table.
    fn unmet_merges(&self) -> u64 {
        let max_doc = self
            .entities
            .iter()
            .flat_map(|e| e.mentions.iter())
            .max()
            .copied()
            .unwrap_or(0);
        let mut entity_of = vec![usize::MAX; max_doc + 1];
        for (ei, entity) in self.entities.iter().enumerate() {
            for &doc in &entity.mentions {
                entity_of[doc] = ei;
            }
        }
        self.constraints.unmet_merges(&entity_of)
    }

    /// Internal accessors for (de)serialisation.
    pub(crate) fn parts(
        &self,
    ) -> (
        &str,
        u64,
        &[Entity],
        &[Entity],
        &[SameAsLink],
        &ConstraintSet,
    ) {
        (
            &self.name,
            self.next_id,
            &self.entities,
            &self.retired,
            &self.links,
            &self.constraints,
        )
    }

    pub(crate) fn from_parts(
        name: String,
        next_id: u64,
        entities: Vec<Entity>,
        retired: Vec<Entity>,
        links: Vec<SameAsLink>,
        constraints: ConstraintSet,
    ) -> Self {
        Self {
            name,
            next_id,
            entities,
            retired,
            links,
            constraints,
        }
    }
}

/// The previous-table slots holding each document below `docs`,
/// ascending, each slot once even when its mention list repeats a doc.
fn holders_by_doc(previous: &[&Entity], docs: usize) -> Vec<Vec<usize>> {
    let mut holders = vec![Vec::new(); docs];
    for (slot, prev) in previous.iter().enumerate() {
        for &doc in &prev.mentions {
            if let Some(held) = holders.get_mut(doc) {
                if held.last() != Some(&slot) {
                    held.push(slot);
                }
            }
        }
    }
    holders
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pairwise materialization the indexed one replaced, kept as
    /// the reference: it scans every (group, previous entity) pair for
    /// overlap and every pair of a cluster for a forbidden pair.
    fn pairwise_materialize(
        store: &mut EntityStore,
        clusters: &[Vec<usize>],
        origins: &[MentionOrigin],
    ) -> MaterializeReport {
        let mut report = MaterializeReport::default();

        // 1. Constraint-aware splitting. A raw cluster containing a
        // forbidden pair is re-placed greedily: each mention joins the
        // first fragment it conflicts with nobody in.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut split_flags: Vec<bool> = Vec::new();
        for cluster in clusters {
            let mut members = cluster.clone();
            members.sort_unstable();
            let mut forbidden_pairs = 0u64;
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    if store.forbidden(a, b, origins) {
                        forbidden_pairs += 1;
                    }
                }
            }
            report.violations += forbidden_pairs;
            if forbidden_pairs == 0 {
                groups.push(members);
                split_flags.push(false);
                continue;
            }
            let mut fragments: Vec<Vec<usize>> = Vec::new();
            for &doc in &members {
                match fragments
                    .iter_mut()
                    .find(|f| f.iter().all(|&m| !store.forbidden(m, doc, origins)))
                {
                    Some(fragment) => fragment.push(doc),
                    None => fragments.push(vec![doc]),
                }
            }
            report.splits += fragments.len() as u64 - 1;
            for fragment in fragments {
                groups.push(fragment);
                split_flags.push(true);
            }
        }
        // Deterministic group order regardless of the partition's
        // cluster enumeration.
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by_key(|&g| groups[g][0]);
        let (sorted_groups, sorted_flags): (Vec<_>, Vec<_>) = order
            .into_iter()
            .map(|g| (std::mem::take(&mut groups[g]), split_flags[g]))
            .unzip();
        let groups = sorted_groups;
        let split_flags = sorted_flags;

        // 2. Stable-ID assignment: maximum mention overlap against the
        // previous table, live entities preferred over retired ones,
        // ties broken by lower previous ID then lower group index.
        let overlap = |prev: &Entity, group: &[usize]| -> usize {
            group.iter().filter(|d| prev.mentions.contains(d)).count()
        };
        // (overlap, retired?, prev slot, group) for every nonzero pair.
        let mut candidates: Vec<(usize, bool, usize, usize)> = Vec::new();
        for (gi, group) in groups.iter().enumerate() {
            for (pi, prev) in store.entities.iter().enumerate() {
                let o = overlap(prev, group);
                if o > 0 {
                    candidates.push((o, false, pi, gi));
                }
            }
            for (pi, prev) in store.retired.iter().enumerate() {
                let o = overlap(prev, group);
                if o > 0 {
                    candidates.push((o, true, pi, gi));
                }
            }
        }
        candidates.sort_by(|x, y| {
            y.0.cmp(&x.0) // overlap desc
                .then(x.1.cmp(&y.1)) // live before retired
                .then_with(|| {
                    let id = |&(_, retired, pi, _): &(usize, bool, usize, usize)| {
                        if retired {
                            store.retired[pi].id
                        } else {
                            store.entities[pi].id
                        }
                    };
                    id(x).cmp(&id(y))
                })
                .then(x.3.cmp(&y.3))
        });
        let mut group_id: Vec<Option<u64>> = vec![None; groups.len()];
        let mut used_live = vec![false; store.entities.len()];
        let mut used_retired = vec![false; store.retired.len()];
        let mut resurrected: Vec<usize> = Vec::new();
        for (_, is_retired, pi, gi) in candidates {
            if group_id[gi].is_some() {
                continue;
            }
            let used = if is_retired {
                &mut used_retired[pi]
            } else {
                &mut used_live[pi]
            };
            if *used {
                continue;
            }
            *used = true;
            group_id[gi] = Some(if is_retired {
                resurrected.push(pi);
                store.retired[pi].id
            } else {
                store.entities[pi].id
            });
            if is_retired {
                report.resurrected_ids += 1;
            } else {
                report.retained_ids += 1;
            }
        }
        for slot in &mut group_id {
            if slot.is_none() {
                *slot = Some(store.next_id);
                store.next_id += 1;
                report.fresh_ids += 1;
            }
        }
        let mut group_id: Vec<u64> = group_id.into_iter().map(Option::unwrap).collect();
        // IDs handed back leave the retired pool; live entities whose ID
        // found no group retire below.
        resurrected.sort_unstable();
        for (removed, pi) in resurrected.into_iter().enumerate() {
            store.retired.remove(pi - removed);
        }
        let dissolved: Vec<Entity> = store
            .entities
            .iter()
            .zip(&used_live)
            .filter(|(_, used)| !**used)
            .map(|(e, _)| e.clone())
            .collect();

        // 3. SAME_AS unions. Links join entity IDs; a union a
        // constraint forbids is vetoed (counted, link kept so the
        // operator can retract it). The surviving ID is the larger
        // side's, ties to the lower ID; the absorbed ID is retired.
        // Per-doc via, seeded from each fragment's split flag and
        // overwritten for mentions that move across a link.
        let max_doc = groups
            .iter()
            .flat_map(|g| g.iter())
            .max()
            .copied()
            .unwrap_or(0);
        let mut doc_via: Vec<Via> = vec![Via::Partition; max_doc + 1];
        for (group, &split) in groups.iter().zip(&split_flags) {
            if split {
                for &doc in group {
                    doc_via[doc] = Via::Split;
                }
            }
        }
        let links = store.links.clone();
        let mut merged_groups = groups;
        for link in &links {
            let locate = |id: u64, merged: &[Vec<usize>], ids: &[u64]| {
                ids.iter()
                    .enumerate()
                    .find_map(|(gi, &gid)| (gid == id && !merged[gi].is_empty()).then_some(gi))
            };
            let (Some(ga), Some(gb)) = (
                locate(link.a, &merged_groups, &group_id),
                locate(link.b, &merged_groups, &group_id),
            ) else {
                continue; // an endpoint is not materialized this pass
            };
            if ga == gb {
                continue;
            }
            let vetoed = merged_groups[ga].iter().any(|&a| {
                merged_groups[gb]
                    .iter()
                    .any(|&b| store.forbidden(a, b, origins))
            });
            if vetoed {
                report.vetoed_links += 1;
                report.violations += 1;
                continue;
            }
            let (survivor, absorbed) = if merged_groups[ga].len() > merged_groups[gb].len()
                || (merged_groups[ga].len() == merged_groups[gb].len()
                    && group_id[ga] <= group_id[gb])
            {
                (ga, gb)
            } else {
                (gb, ga)
            };
            let moved = std::mem::take(&mut merged_groups[absorbed]);
            // Retire the absorbed ID with the mention set it covered.
            store.retired.push(Entity {
                id: group_id[absorbed],
                mentions: moved.clone(),
                provenance: Vec::new(),
            });
            for &doc in &moved {
                doc_via[doc] = Via::SameAs {
                    a: link.a,
                    b: link.b,
                };
            }
            merged_groups[survivor].extend(moved);
            merged_groups[survivor].sort_unstable();
            group_id[absorbed] = group_id[survivor];
        }

        // 4. Rebuild the table with provenance; dissolved live IDs move
        // to the retired pool.
        let mut table: Vec<Entity> = merged_groups
            .into_iter()
            .zip(&group_id)
            .filter(|(group, _)| !group.is_empty())
            .map(|(mentions, &id)| {
                let provenance = mentions
                    .iter()
                    .map(|&doc| Provenance {
                        doc,
                        origin: origins.get(doc).copied().unwrap_or(MentionOrigin::Ingest),
                        via: doc_via[doc],
                    })
                    .collect();
                Entity {
                    id,
                    mentions,
                    provenance,
                }
            })
            .collect();
        table.sort_by_key(|e| e.mentions[0]);
        store.entities = table;
        store.retired.extend(dissolved);
        // The pool keeps one record per ID, the most recent.
        let mut seen = std::collections::HashSet::new();
        let live: std::collections::HashSet<u64> = store.entities.iter().map(|e| e.id).collect();
        store.retired.reverse();
        store
            .retired
            .retain(|e| !live.contains(&e.id) && seen.insert(e.id));
        store.retired.reverse();

        report.violations += store.unmet_merges();
        report.entities = store.entities.len();
        report
    }

    fn seeds(labels: &[u32]) -> Vec<MentionOrigin> {
        labels
            .iter()
            .map(|&label| MentionOrigin::Seed { label })
            .collect()
    }

    fn mixed(seed_labels: &[u32], ingests: usize) -> Vec<MentionOrigin> {
        let mut origins = seeds(seed_labels);
        origins.extend(std::iter::repeat_n(MentionOrigin::Ingest, ingests));
        origins
    }

    fn ids(store: &EntityStore) -> Vec<u64> {
        store.entities().iter().map(|e| e.id).collect()
    }

    /// SplitMix64: one generated case's whole op sequence from one seed.
    struct Ops(u64);

    impl Ops {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }

        /// `(doc, value)` tags over a few of `docs`, values from a small
        /// alphabet so equal and different values both occur.
        fn tags(&mut self, docs: usize) -> Vec<(usize, String)> {
            (0..1 + self.below(4))
                .map(|_| (self.below(docs), ["x", "y", "z"][self.below(3)].to_string()))
                .collect()
        }
    }

    /// `labels[doc]` as a cluster list.
    fn clusters_of(labels: &[usize]) -> Vec<Vec<usize>> {
        let mut clusters: Vec<Vec<usize>> =
            vec![Vec::new(); labels.iter().max().map_or(0, |&l| l + 1)];
        for (doc, &label) in labels.iter().enumerate() {
            clusters[label].push(doc);
        }
        clusters.retain(|c| !c.is_empty());
        clusters
    }

    fn assert_same_store(
        indexed: &EntityStore,
        pairwise: &EntityStore,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(&indexed.entities, &pairwise.entities);
        prop_assert_eq!(&indexed.retired, &pairwise.retired);
        prop_assert_eq!(indexed.next_id, pairwise.next_id);
        prop_assert_eq!(&indexed.links, &pairwise.links);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The indexed pass decides exactly what the pairwise one did:
        /// random pass sequences over a growing block whose clusters move
        /// between passes, random seed labels, all three constraint kinds,
        /// and `SAME_AS` asserts and retracts.
        #[test]
        fn indexed_materialize_equals_the_pairwise_reference(seed in 0u64..u64::MAX) {
            let mut ops = Ops(seed);
            let mut docs = 1 + ops.below(24);
            let seeds = ops.below(docs.min(10) + 1);
            let seed_labels: Vec<u32> = (0..seeds).map(|_| ops.below(3) as u32).collect();
            let mut labels: Vec<usize> = (0..docs).map(|_| ops.below(1 + docs / 3)).collect();
            let mut indexed = EntityStore::new("prop");
            let mut pairwise = EntityStore::new("prop");
            for _ in 0..1 + ops.below(8) {
                // Grow the block, then move some clusters' members.
                for _ in 0..ops.below(4) {
                    labels.push(ops.below(1 + docs / 3));
                    docs += 1;
                }
                for _ in 0..ops.below(docs / 2 + 1) {
                    let (doc, to) = (ops.below(docs), ops.below(1 + docs / 3));
                    labels[doc] = to;
                }
                if ops.chance(15) {
                    let (from, to) = (ops.below(1 + docs / 3), ops.below(1 + docs / 3));
                    labels.iter_mut().filter(|l| **l == from).for_each(|l| *l = to);
                }
                let constraint = match ops.below(12) {
                    0 | 1 => Some(Constraint::CannotLink { a: ops.below(docs), b: ops.below(docs) }),
                    2 => Some(Constraint::OneToOne { key: "k".into(), values: ops.tags(docs) }),
                    3 => Some(Constraint::TypeBoundary { types: ops.tags(docs) }),
                    _ => None,
                };
                if let Some(c) = constraint {
                    prop_assert_eq!(indexed.add_constraint(c.clone()), pairwise.add_constraint(c));
                }
                if ops.chance(5) {
                    indexed.clear_constraints();
                    pairwise.clear_constraints();
                }
                let live: Vec<u64> = indexed.entities().iter().map(|e| e.id).collect();
                if !live.is_empty() && ops.chance(35) {
                    let (a, b) = (live[ops.below(live.len())], live[ops.below(live.len())]);
                    prop_assert_eq!(indexed.assert_link(a, b), pairwise.assert_link(a, b));
                }
                if !indexed.links().is_empty() && ops.chance(30) {
                    let link = indexed.links()[ops.below(indexed.links().len())];
                    prop_assert_eq!(
                        indexed.retract_link(link.b, link.a),
                        pairwise.retract_link(link.b, link.a)
                    );
                }
                let mut origins: Vec<MentionOrigin> = seed_labels
                    .iter()
                    .map(|&label| MentionOrigin::Seed { label })
                    .collect();
                origins.resize(docs, MentionOrigin::Ingest);
                let mut clusters = clusters_of(&labels);
                // The partition's cluster enumeration order is arbitrary.
                let shift = ops.below(clusters.len());
                clusters.rotate_left(shift);
                let report = indexed.materialize(&clusters, &origins);
                let reference = pairwise_materialize(&mut pairwise, &clusters, &origins);
                prop_assert_eq!(report, reference, "seed {}", seed);
                assert_same_store(&indexed, &pairwise)?;
            }
        }
    }

    #[test]
    fn first_materialization_mints_sequential_ids() {
        let mut store = EntityStore::new("cohen");
        let report = store.materialize(&[vec![0, 1], vec![2, 3]], &seeds(&[0, 0, 1, 1]));
        assert_eq!(report.entities, 2);
        assert_eq!(report.fresh_ids, 2);
        assert_eq!(ids(&store), vec![1, 2]);
    }

    #[test]
    fn ids_survive_a_repartition_by_max_overlap() {
        let mut store = EntityStore::new("cohen");
        store.materialize(&[vec![0, 1, 2], vec![3, 4]], &mixed(&[0, 0, 0, 1, 1], 0));
        let before = ids(&store);
        // A re-partition from scratch: same structure, new doc 5 joins
        // the second cluster, clusters enumerate in a different order.
        let report =
            store.materialize(&[vec![3, 4, 5], vec![0, 1, 2]], &mixed(&[0, 0, 0, 1, 1], 1));
        assert_eq!(report.retained_ids, 2);
        assert_eq!(report.fresh_ids, 0);
        assert_eq!(ids(&store), before, "stable across the re-partition");
        assert_eq!(store.entity(before[1]).unwrap().mentions, vec![3, 4, 5]);
    }

    #[test]
    fn a_moved_majority_takes_its_id_along() {
        let mut store = EntityStore::new("cohen");
        store.materialize(&[vec![0, 1, 2, 3]], &mixed(&[], 4));
        // The cluster splits 3-vs-1: the majority fragment keeps ID 1,
        // the singleton mints a fresh ID.
        let report = store.materialize(&[vec![0, 1, 2], vec![3]], &mixed(&[], 4));
        assert_eq!(report.retained_ids, 1);
        assert_eq!(report.fresh_ids, 1);
        assert_eq!(store.entity(1).unwrap().mentions, vec![0, 1, 2]);
        assert_eq!(store.entity(2).unwrap().mentions, vec![3]);
    }

    #[test]
    fn same_as_merges_and_retract_restores_both_ids() {
        let mut store = EntityStore::new("cohen");
        let origins = mixed(&[], 5);
        store.materialize(&[vec![0, 1], vec![2, 3, 4]], &origins);
        assert_eq!(ids(&store), vec![1, 2]);

        store.assert_link(1, 2).unwrap();
        let report = store.materialize(&[vec![0, 1], vec![2, 3, 4]], &origins);
        assert_eq!(report.entities, 1);
        let merged = &store.entities()[0];
        assert_eq!(merged.id, 2, "the larger side's ID survives");
        assert_eq!(merged.mentions, vec![0, 1, 2, 3, 4]);
        // The absorbed side's provenance names the link.
        let via0 = merged.provenance.iter().find(|p| p.doc == 0).unwrap().via;
        assert_eq!(via0, Via::SameAs { a: 1, b: 2 });
        let via2 = merged.provenance.iter().find(|p| p.doc == 2).unwrap().via;
        assert_eq!(via2, Via::Partition);

        store.retract_link(1, 2).unwrap();
        let report = store.materialize(&[vec![0, 1], vec![2, 3, 4]], &origins);
        assert_eq!(report.entities, 2);
        assert_eq!(report.resurrected_ids, 1, "the retired ID comes back");
        assert_eq!(store.entity(1).unwrap().mentions, vec![0, 1]);
        assert_eq!(store.entity(2).unwrap().mentions, vec![2, 3, 4]);
        assert!(store
            .entities()
            .iter()
            .all(|e| e.provenance.iter().all(|p| p.via == Via::Partition)));
    }

    #[test]
    fn link_errors_are_typed() {
        let mut store = EntityStore::new("cohen");
        store.materialize(&[vec![0], vec![1]], &mixed(&[], 2));
        assert_eq!(store.assert_link(1, 9), Err(EntityError::UnknownEntity(9)));
        assert_eq!(
            store.retract_link(1, 2),
            Err(EntityError::UnknownLink(1, 2))
        );
        store.assert_link(1, 2).unwrap();
        store.assert_link(2, 1).unwrap(); // idempotent, either orientation
        assert_eq!(store.links().len(), 1);
    }

    #[test]
    fn cannot_link_splits_the_cluster_and_counts_the_violation() {
        let mut store = EntityStore::new("cohen");
        let origins = mixed(&[], 4);
        store.materialize(&[vec![0, 1, 2, 3]], &origins);
        store.add_constraint(Constraint::CannotLink { a: 0, b: 2 });
        let report = store.materialize(&[vec![0, 1, 2, 3]], &origins);
        assert_eq!(report.violations, 1);
        assert_eq!(report.splits, 1);
        assert_eq!(report.entities, 2);
        // 0 and 2 ended up apart; everyone else stayed with the first
        // fragment; the fragments carry split provenance.
        let of = |doc: usize| {
            store
                .entities()
                .iter()
                .position(|e| e.mentions.contains(&doc))
                .unwrap()
        };
        assert_ne!(of(0), of(2));
        assert!(store.entities()[of(0)]
            .provenance
            .iter()
            .all(|p| p.via == Via::Split));
    }

    #[test]
    fn seed_labels_are_implicit_cannot_links() {
        let mut store = EntityStore::new("cohen");
        // The partition wrongly merged two differently-labelled seeds.
        let report = store.materialize(&[vec![0, 1]], &seeds(&[0, 1]));
        assert_eq!(report.entities, 2);
        assert_eq!(report.violations, 1);
    }

    #[test]
    fn constraints_veto_a_same_as_union() {
        let mut store = EntityStore::new("cohen");
        let origins = mixed(&[], 4);
        store.materialize(&[vec![0, 1], vec![2, 3]], &origins);
        store.assert_link(1, 2).unwrap();
        store.add_constraint(Constraint::CannotLink { a: 0, b: 3 });
        let report = store.materialize(&[vec![0, 1], vec![2, 3]], &origins);
        assert_eq!(report.entities, 2, "the union is vetoed");
        assert_eq!(report.vetoed_links, 1);
        assert!(report.violations >= 1);
        assert_eq!(store.links().len(), 1, "the link stays for retraction");
    }

    #[test]
    fn one_to_one_reports_unmet_merges() {
        let mut store = EntityStore::new("cohen");
        let origins = mixed(&[], 4);
        store.add_constraint(Constraint::OneToOne {
            key: "affiliation".into(),
            values: vec![(0, "acme".into()), (2, "acme".into())],
        });
        let report = store.materialize(&[vec![0, 1], vec![2, 3]], &origins);
        assert_eq!(report.entities, 2);
        assert_eq!(report.violations, 1, "same value, different entities");
    }

    #[test]
    fn type_boundaries_split_mixed_clusters() {
        let mut store = EntityStore::new("cohen");
        let origins = mixed(&[], 3);
        store.add_constraint(Constraint::TypeBoundary {
            types: vec![(0, "person".into()), (2, "org".into())],
        });
        let report = store.materialize(&[vec![0, 1, 2]], &origins);
        assert_eq!(report.entities, 2);
        assert_eq!(report.splits, 1);
    }
}
