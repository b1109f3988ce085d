//! Declarative global constraints checked during materialization.

/// One global constraint on a name's entities.
///
/// All three kinds forbid certain mention pairs from sharing an entity;
/// [`Constraint::OneToOne`] additionally declares the *merge* direction
/// (same value ⇒ same entity), which splitting cannot enforce — unmet
/// merges are surfaced as violations instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// Mentions `a` and `b` must not share an entity.
    CannotLink {
        /// First mention (document index within the name's block).
        a: usize,
        /// Second mention.
        b: usize,
    },
    /// A one-to-one mapping between entities and values of an attribute:
    /// mentions carrying *different* values of `key` must be distinct
    /// entities, and mentions carrying the *same* value should share one.
    OneToOne {
        /// Attribute name, e.g. `"affiliation"`.
        key: String,
        /// `(mention, value)` pairs; mentions not listed are
        /// unconstrained.
        values: Vec<(usize, String)>,
    },
    /// Entities never cross a type boundary: mentions tagged with
    /// different types must be distinct entities.
    TypeBoundary {
        /// `(mention, type)` pairs; untagged mentions are
        /// unconstrained.
        types: Vec<(usize, String)>,
    },
}

impl Constraint {
    /// Stable kind token, as used on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            Constraint::CannotLink { .. } => "cannot-link",
            Constraint::OneToOne { .. } => "one-to-one",
            Constraint::TypeBoundary { .. } => "type",
        }
    }

    /// Normalise for deduplication: order pair endpoints, sort value
    /// lists by mention.
    fn normalise(&mut self) {
        match self {
            Constraint::CannotLink { a, b } => {
                if a > b {
                    std::mem::swap(a, b);
                }
            }
            Constraint::OneToOne { values, .. } => {
                values.sort();
                values.dedup();
            }
            Constraint::TypeBoundary { types } => {
                types.sort();
                types.dedup();
            }
        }
    }

    /// The value this constraint assigns to mention `doc`, if any.
    fn value_of(pairs: &[(usize, String)], doc: usize) -> Option<&str> {
        pairs
            .iter()
            .find(|(d, _)| *d == doc)
            .map(|(_, v)| v.as_str())
    }

    /// True when this constraint forbids `a` and `b` from co-referring.
    pub fn forbids(&self, a: usize, b: usize) -> bool {
        match self {
            Constraint::CannotLink { a: x, b: y } => (*x == a && *y == b) || (*x == b && *y == a),
            Constraint::OneToOne { values, .. } => matches!(
                (Self::value_of(values, a), Self::value_of(values, b)),
                (Some(va), Some(vb)) if va != vb
            ),
            Constraint::TypeBoundary { types } => matches!(
                (Self::value_of(types, a), Self::value_of(types, b)),
                (Some(ta), Some(tb)) if ta != tb
            ),
        }
    }
}

/// The set of constraints registered for one name.
#[derive(Debug, Clone, Default)]
pub struct ConstraintSet {
    items: Vec<Constraint>,
}

impl ConstraintSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a constraint. Duplicates (after normalisation) are
    /// ignored; returns whether the set grew.
    pub fn add(&mut self, mut constraint: Constraint) -> bool {
        constraint.normalise();
        if self.items.contains(&constraint) {
            return false;
        }
        self.items.push(constraint);
        true
    }

    /// Drop every constraint.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Number of registered constraints.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no constraint is registered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The registered constraints.
    pub fn items(&self) -> &[Constraint] {
        &self.items
    }

    /// The kind token of the first constraint forbidding the pair, if
    /// any constraint does.
    pub fn conflict(&self, a: usize, b: usize) -> Option<&'static str> {
        self.items
            .iter()
            .find(|c| c.forbids(a, b))
            .map(Constraint::kind)
    }

    /// `named[doc]` is true when some constraint names mention `doc`,
    /// for every `doc < docs`. Every constraint forbids only pairs of
    /// mentions it names, so a mention no constraint names is in no
    /// constraint-forbidden pair.
    pub(crate) fn named_mentions(&self, docs: usize) -> Vec<bool> {
        let mut named = vec![false; docs];
        let mut mark = |doc: usize| {
            if let Some(slot) = named.get_mut(doc) {
                *slot = true;
            }
        };
        for constraint in &self.items {
            match constraint {
                Constraint::CannotLink { a, b } => {
                    mark(*a);
                    mark(*b);
                }
                Constraint::OneToOne { values: pairs, .. }
                | Constraint::TypeBoundary { types: pairs } => {
                    pairs.iter().for_each(|(doc, _)| mark(*doc))
                }
            }
        }
        named
    }

    /// Unmet one-to-one merges: pairs of mentions that carry the *same*
    /// value of some one-to-one key but sit in different entities
    /// (`entity_of[doc]` maps each mention to its entity's index).
    /// Splitting cannot repair these, so they are only counted.
    pub fn unmet_merges(&self, entity_of: &[usize]) -> u64 {
        let mut unmet = 0;
        for constraint in &self.items {
            let Constraint::OneToOne { values, .. } = constraint else {
                continue;
            };
            for (i, (doc_a, val_a)) in values.iter().enumerate() {
                for (doc_b, val_b) in &values[i + 1..] {
                    if val_a == val_b
                        && *doc_a < entity_of.len()
                        && *doc_b < entity_of.len()
                        && entity_of[*doc_a] != entity_of[*doc_b]
                    {
                        unmet += 1;
                    }
                }
            }
        }
        unmet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cannot_link_forbids_both_orientations_and_dedups() {
        let mut set = ConstraintSet::new();
        assert!(set.add(Constraint::CannotLink { a: 3, b: 1 }));
        assert!(!set.add(Constraint::CannotLink { a: 1, b: 3 }));
        assert_eq!(set.len(), 1);
        assert_eq!(set.conflict(1, 3), Some("cannot-link"));
        assert_eq!(set.conflict(3, 1), Some("cannot-link"));
        assert_eq!(set.conflict(1, 2), None);
    }

    #[test]
    fn one_to_one_forbids_different_values_only() {
        let mut set = ConstraintSet::new();
        set.add(Constraint::OneToOne {
            key: "affiliation".into(),
            values: vec![(0, "acme".into()), (1, "acme".into()), (2, "globex".into())],
        });
        assert_eq!(set.conflict(0, 2), Some("one-to-one"));
        assert_eq!(set.conflict(0, 1), None, "same value may merge");
        assert_eq!(set.conflict(0, 5), None, "unlisted mention is free");
    }

    #[test]
    fn type_boundary_forbids_cross_type_pairs() {
        let mut set = ConstraintSet::new();
        set.add(Constraint::TypeBoundary {
            types: vec![(0, "person".into()), (4, "org".into())],
        });
        assert_eq!(set.conflict(0, 4), Some("type"));
        assert_eq!(set.conflict(0, 1), None);
    }

    #[test]
    fn unmet_merges_counts_same_value_across_entities() {
        let mut set = ConstraintSet::new();
        set.add(Constraint::OneToOne {
            key: "k".into(),
            values: vec![(0, "v".into()), (1, "v".into()), (2, "w".into())],
        });
        // 0 and 1 share value "v" but live in entities 0 and 1.
        assert_eq!(set.unmet_merges(&[0, 1, 1]), 1);
        assert_eq!(set.unmet_merges(&[0, 0, 1]), 0);
    }
}
