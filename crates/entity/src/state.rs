//! Flat, versioned serialisation of an [`EntityStore`].
//!
//! The vendored serde derive handles structs of plain fields and
//! unit-only enums, so the table state is deliberately flat: enums
//! become string tokens, pairs become two-field structs. The record is
//! self-describing (`magic` + `version`) exactly like the per-name
//! clustering records `weber-stream` writes next to it.
//!
//! Version 2 keeps one tag list per type-boundary constraint
//! (`type_boundaries`). Version 1 merged every type constraint's tags
//! into one `types` list; such a record is still read, as the single
//! merged constraint it stores.

use serde::{Deserialize, Serialize};

use crate::constraint::{Constraint, ConstraintSet};
use crate::store::{Entity, EntityStore, MentionOrigin, Provenance, SameAsLink, Via};

/// Magic tag identifying an entity-table record on disk.
pub const ENTITY_FILE_MAGIC: &str = "weber-entity-state";
/// Current record version, the one writers produce.
pub const ENTITY_FILE_VERSION: u32 = 2;
/// Oldest record version readers still accept.
pub const ENTITY_FILE_MIN_VERSION: u32 = 1;

/// One mention pair (cannot-link endpoints).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairState {
    /// First mention.
    pub a: usize,
    /// Second mention.
    pub b: usize,
}

/// One `(mention, value)` tag of a one-to-one or type constraint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TypedDocState {
    /// The mention (document index).
    pub doc: usize,
    /// Its declared value or type.
    pub value: String,
}

/// A one-to-one constraint: key plus its mention tags.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OneToOneState {
    /// Attribute name.
    pub key: String,
    /// Mention tags.
    pub values: Vec<TypedDocState>,
}

/// A type-boundary constraint: its mention tags.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TypeBoundaryState {
    /// Mention tags.
    pub types: Vec<TypedDocState>,
}

/// An active `SAME_AS` link.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkState {
    /// One endpoint entity ID.
    pub a: u64,
    /// The other endpoint entity ID.
    pub b: u64,
}

/// One entity, flattened: provenance columns are aligned with
/// `mentions` (`labels[i]` is `-1` for ingested mentions; `vias[i]`
/// holds the via token, with `same-as` endpoints in `via_a`/`via_b`,
/// `0` where unused).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntityState {
    /// Stable ID.
    pub id: u64,
    /// Member mentions, ascending.
    pub mentions: Vec<usize>,
    /// `"seed"` / `"ingest"` per mention.
    pub sources: Vec<String>,
    /// Seed label per mention, `-1` for ingests.
    pub labels: Vec<i64>,
    /// Via token per mention: `"partition"`, `"same-as"`, `"split"`.
    pub vias: Vec<String>,
    /// `same-as` link endpoint per mention (0 where unused).
    pub via_a: Vec<u64>,
    /// `same-as` link endpoint per mention (0 where unused).
    pub via_b: Vec<u64>,
}

/// The complete persisted table for one name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableState {
    /// [`ENTITY_FILE_MAGIC`].
    pub magic: String,
    /// [`ENTITY_FILE_VERSION`].
    pub version: u32,
    /// The name the table belongs to.
    pub name: String,
    /// Next fresh entity ID.
    pub next_id: u64,
    /// Live entities.
    pub entities: Vec<EntityState>,
    /// Retired entities (ID + last-known mentions; provenance empty).
    pub retired: Vec<EntityState>,
    /// Active `SAME_AS` links.
    pub links: Vec<LinkState>,
    /// Cannot-link constraints.
    pub cannot_link: Vec<PairState>,
    /// One-to-one constraints.
    pub one_to_one: Vec<OneToOneState>,
    /// Version 1's merged type-boundary tags, read back as one
    /// constraint; version 2 writes it empty.
    pub types: Vec<TypedDocState>,
    /// Type-boundary constraints, one tag list each (absent in version 1).
    pub type_boundaries: Option<Vec<TypeBoundaryState>>,
}

fn tags_to_state(tags: &[(usize, String)]) -> Vec<TypedDocState> {
    tags.iter()
        .map(|(doc, value)| TypedDocState {
            doc: *doc,
            value: value.clone(),
        })
        .collect()
}

fn tags_from_state(tags: &[TypedDocState]) -> Vec<(usize, String)> {
    tags.iter().map(|t| (t.doc, t.value.clone())).collect()
}

fn entity_to_state(entity: &Entity) -> EntityState {
    let mut state = EntityState {
        id: entity.id,
        mentions: entity.mentions.clone(),
        sources: Vec::new(),
        labels: Vec::new(),
        vias: Vec::new(),
        via_a: Vec::new(),
        via_b: Vec::new(),
    };
    for p in &entity.provenance {
        match p.origin {
            MentionOrigin::Seed { label } => {
                state.sources.push("seed".into());
                state.labels.push(label as i64);
            }
            MentionOrigin::Ingest => {
                state.sources.push("ingest".into());
                state.labels.push(-1);
            }
        }
        state.vias.push(p.via.token().into());
        let (a, b) = match p.via {
            Via::SameAs { a, b } => (a, b),
            _ => (0, 0),
        };
        state.via_a.push(a);
        state.via_b.push(b);
    }
    state
}

fn entity_from_state(state: &EntityState) -> Entity {
    let provenance = state
        .mentions
        .iter()
        .enumerate()
        .filter(|&(i, _)| i < state.sources.len())
        .map(|(i, &doc)| Provenance {
            doc,
            origin: if state.sources[i] == "seed" {
                MentionOrigin::Seed {
                    label: state.labels.get(i).copied().unwrap_or(-1).max(0) as u32,
                }
            } else {
                MentionOrigin::Ingest
            },
            via: match state.vias.get(i).map(String::as_str) {
                Some("same-as") => Via::SameAs {
                    a: state.via_a.get(i).copied().unwrap_or(0),
                    b: state.via_b.get(i).copied().unwrap_or(0),
                },
                Some("split") => Via::Split,
                _ => Via::Partition,
            },
        })
        .collect();
    Entity {
        id: state.id,
        mentions: state.mentions.clone(),
        provenance,
    }
}

impl TableState {
    /// Snapshot a store into its persisted form.
    pub fn capture(store: &EntityStore) -> Self {
        let (name, next_id, entities, retired, links, constraints) = store.parts();
        let mut state = TableState {
            magic: ENTITY_FILE_MAGIC.into(),
            version: ENTITY_FILE_VERSION,
            name: name.to_string(),
            next_id,
            entities: entities.iter().map(entity_to_state).collect(),
            retired: retired.iter().map(entity_to_state).collect(),
            links: links.iter().map(|l| LinkState { a: l.a, b: l.b }).collect(),
            cannot_link: Vec::new(),
            one_to_one: Vec::new(),
            types: Vec::new(),
            type_boundaries: None,
        };
        let mut type_boundaries = Vec::new();
        for constraint in constraints.items() {
            match constraint {
                Constraint::CannotLink { a, b } => {
                    state.cannot_link.push(PairState { a: *a, b: *b })
                }
                Constraint::OneToOne { key, values } => state.one_to_one.push(OneToOneState {
                    key: key.clone(),
                    values: tags_to_state(values),
                }),
                Constraint::TypeBoundary { types } => type_boundaries.push(TypeBoundaryState {
                    types: tags_to_state(types),
                }),
            }
        }
        state.type_boundaries = Some(type_boundaries);
        state
    }

    /// Rebuild the live store. Fails on a wrong magic or version.
    pub fn restore(&self) -> Result<EntityStore, String> {
        if self.magic != ENTITY_FILE_MAGIC {
            return Err(format!(
                "not an entity-table record: magic {:?}",
                self.magic
            ));
        }
        if !(ENTITY_FILE_MIN_VERSION..=ENTITY_FILE_VERSION).contains(&self.version) {
            return Err(format!(
                "unsupported entity-table version {} (expected {}..={})",
                self.version, ENTITY_FILE_MIN_VERSION, ENTITY_FILE_VERSION
            ));
        }
        let mut constraints = ConstraintSet::new();
        for pair in &self.cannot_link {
            constraints.add(Constraint::CannotLink {
                a: pair.a,
                b: pair.b,
            });
        }
        for oto in &self.one_to_one {
            constraints.add(Constraint::OneToOne {
                key: oto.key.clone(),
                values: tags_from_state(&oto.values),
            });
        }
        if !self.types.is_empty() {
            constraints.add(Constraint::TypeBoundary {
                types: tags_from_state(&self.types),
            });
        }
        for boundary in self.type_boundaries.iter().flatten() {
            constraints.add(Constraint::TypeBoundary {
                types: tags_from_state(&boundary.types),
            });
        }
        Ok(EntityStore::from_parts(
            self.name.clone(),
            self.next_id,
            self.entities.iter().map(entity_from_state).collect(),
            self.retired.iter().map(entity_from_state).collect(),
            self.links
                .iter()
                .map(|l| SameAsLink { a: l.a, b: l.b })
                .collect(),
            constraints,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MentionOrigin;

    #[test]
    fn capture_restore_roundtrips_through_json() {
        let mut store = EntityStore::new("cohen");
        let origins = vec![
            MentionOrigin::Seed { label: 0 },
            MentionOrigin::Seed { label: 0 },
            MentionOrigin::Ingest,
            MentionOrigin::Ingest,
        ];
        store.materialize(&[vec![0, 1], vec![2, 3]], &origins);
        store.add_constraint(Constraint::CannotLink { a: 0, b: 3 });
        store.add_constraint(Constraint::OneToOne {
            key: "affiliation".into(),
            values: vec![(0, "acme".into())],
        });
        store.assert_link(1, 2).unwrap();
        let state = TableState::capture(&store);
        let json = serde_json::to_string(&state).unwrap();
        let back: TableState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
        let restored = back.restore().unwrap();
        assert_eq!(restored.entities(), store.entities());
        assert_eq!(restored.links(), store.links());
        assert_eq!(restored.constraints().len(), store.constraints().len());
    }

    /// Two type constraints over clusters that each mix their types only
    /// across constraints: neither forbids a pair, so nothing splits.
    fn two_type_constraints() -> (EntityStore, Vec<Vec<usize>>, Vec<MentionOrigin>) {
        let mut store = EntityStore::new("cohen");
        let tag = |doc: usize, value: &str| (doc, value.to_string());
        store.add_constraint(Constraint::TypeBoundary {
            types: vec![tag(0, "person"), tag(2, "org")],
        });
        store.add_constraint(Constraint::TypeBoundary {
            types: vec![tag(1, "person"), tag(3, "org")],
        });
        (
            store,
            vec![vec![0, 3], vec![1, 2]],
            vec![MentionOrigin::Ingest; 4],
        )
    }

    #[test]
    fn each_type_constraint_survives_the_round_trip() {
        let (mut store, clusters, origins) = two_type_constraints();
        let before = store.materialize(&clusters, &origins);
        assert_eq!((before.violations, before.entities), (0, 2));
        let json = serde_json::to_string(&TableState::capture(&store)).unwrap();
        let back: TableState = serde_json::from_str(&json).unwrap();
        assert_eq!(back.version, ENTITY_FILE_VERSION);
        let mut restored = back.restore().unwrap();
        assert_eq!(restored.constraints().items(), store.constraints().items());
        let after = restored.materialize(&clusters, &origins);
        assert_eq!(
            format!("{after:?}"),
            format!("{:?}", store.materialize(&clusters, &origins))
        );
        assert_eq!(restored.entities(), store.entities());
    }

    #[test]
    fn version_one_records_read_their_merged_types_as_one_constraint() {
        let (store, clusters, origins) = two_type_constraints();
        let mut state = TableState::capture(&store);
        state.version = 1;
        state.types = state
            .type_boundaries
            .take()
            .unwrap()
            .into_iter()
            .flat_map(|boundary| boundary.types)
            .collect();
        let json = serde_json::to_string(&state)
            .unwrap()
            .replace(",\"type_boundaries\":null", "");
        assert!(!json.contains("type_boundaries"));
        let back: TableState = serde_json::from_str(&json).unwrap();
        let mut restored = back.restore().unwrap();
        assert_eq!(restored.constraints().len(), 1);
        let report = restored.materialize(&clusters, &origins);
        assert_eq!((report.violations, report.entities), (2, 4));
    }

    #[test]
    fn restore_rejects_wrong_magic_and_version() {
        let store = EntityStore::new("x");
        let mut state = TableState::capture(&store);
        state.magic = "other".into();
        assert!(state.restore().is_err());
        for version in [0, ENTITY_FILE_VERSION + 1] {
            let mut state = TableState::capture(&store);
            state.version = version;
            assert!(state.restore().is_err());
        }
    }
}
