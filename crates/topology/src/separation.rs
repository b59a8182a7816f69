//! Separation and labeling utilities on component partitions.
//!
//! The paper's solvability characterizations reduce to questions about a
//! labeled component partition: are the label classes *separated* (no
//! component mixes two labels — Corollary 5.6), and how do labels extend to
//! unlabeled components (the meta-procedure after Theorem 5.5)?

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::Components;

/// The labeling outcome of one component.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ComponentLabel<L> {
    /// No labeled point in the component (free to assign any value —
    /// meta-procedure step 3).
    Unlabeled,
    /// All labeled points agree on `L`.
    Pure(L),
    /// The component contains at least two distinct labels — a separation
    /// failure (Corollary 5.6 verdict: consensus impossible at this
    /// resolution).
    Mixed(Vec<L>),
}

impl<L> ComponentLabel<L> {
    /// Whether the component is mixed.
    pub fn is_mixed(&self) -> bool {
        matches!(self, ComponentLabel::Mixed(_))
    }
}

/// Per-component labels for a partial labeling of the points.
///
/// `labels` assigns labels to *some* points (e.g. the `v`-valent runs get
/// label `v`); the result classifies every component.
pub fn label_components<L: Clone + Eq + std::hash::Hash>(
    comps: &Components,
    labels: &HashMap<usize, L>,
) -> Vec<ComponentLabel<L>> {
    let mut out: Vec<ComponentLabel<L>> =
        (0..comps.count()).map(|_| ComponentLabel::Unlabeled).collect();
    let mut seen: Vec<Vec<L>> = vec![Vec::new(); comps.count()];
    for (&point, label) in labels {
        let c = comps.component_of(point);
        if !seen[c].contains(label) {
            seen[c].push(label.clone());
        }
    }
    for (c, ls) in seen.into_iter().enumerate() {
        out[c] = match ls.len() {
            0 => ComponentLabel::Unlabeled,
            1 => ComponentLabel::Pure(ls.into_iter().next().expect("len 1")),
            _ => ComponentLabel::Mixed(ls),
        };
    }
    out
}

/// The separation verdict for a labeled component partition: the mixed
/// components only. [`label_components`] classifies every component.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeparationReport {
    /// Component ids whose labels are mixed, ascending.
    pub mixed_components: Vec<usize>,
}

impl SeparationReport {
    /// Whether the labeled classes are separated (no mixed component).
    pub fn is_separated(&self) -> bool {
        self.mixed_components.is_empty()
    }
}

/// Check separation of the label classes across components.
pub fn check_separation<L: Clone + Eq + std::hash::Hash>(
    comps: &Components,
    labels: &HashMap<usize, L>,
) -> SeparationReport {
    let mixed_components = label_components(comps, labels)
        .iter()
        .enumerate()
        .filter(|(_, l)| l.is_mixed())
        .map(|(c, _)| c)
        .collect();
    SeparationReport { mixed_components }
}

/// Complete a separated labeling into a total assignment (meta-procedure
/// steps 2–3): pure components keep their label, unlabeled components get
/// `default`.
///
/// # Panics
/// Panics if any component is mixed — check separation first.
pub fn total_assignment<L: Clone + Eq + std::hash::Hash>(
    comps: &Components,
    labels: &HashMap<usize, L>,
    default: L,
) -> Vec<L> {
    label_components(comps, labels)
        .into_iter()
        .map(|cl| match cl {
            ComponentLabel::Unlabeled => default.clone(),
            ComponentLabel::Pure(l) => l,
            ComponentLabel::Mixed(_) => {
                panic!("total_assignment requires a separated labeling")
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components_by_edges;

    fn comps() -> Components {
        // {0,1}, {2}, {3,4}
        components_by_edges(5, [(0, 1), (3, 4)])
    }

    #[test]
    fn pure_labeling_separated() {
        let labels: HashMap<usize, u32> = [(0, 10), (1, 10), (3, 20)].into();
        assert!(check_separation(&comps(), &labels).is_separated());
        let classes = label_components(&comps(), &labels);
        assert_eq!(classes[0], ComponentLabel::Pure(10));
        assert_eq!(classes[1], ComponentLabel::Unlabeled);
        assert_eq!(classes[2], ComponentLabel::Pure(20));
    }

    #[test]
    fn mixed_labeling_detected() {
        let labels: HashMap<usize, u32> = [(0, 10), (1, 20)].into();
        let rep = check_separation(&comps(), &labels);
        assert!(!rep.is_separated());
        assert_eq!(rep.mixed_components, vec![0]);
        assert!(label_components(&comps(), &labels)[0].is_mixed());
    }

    #[test]
    fn total_assignment_defaults_unlabeled() {
        let labels: HashMap<usize, u32> = [(0, 10), (4, 20)].into();
        let assignment = total_assignment(&comps(), &labels, 99);
        assert_eq!(assignment, vec![10, 99, 20]);
    }

    #[test]
    #[should_panic(expected = "separated labeling")]
    fn total_assignment_rejects_mixed() {
        let labels: HashMap<usize, u32> = [(3, 1), (4, 2)].into();
        let _ = total_assignment(&comps(), &labels, 0);
    }

    #[test]
    fn duplicate_labels_single_class() {
        let labels: HashMap<usize, u32> = [(3, 7), (4, 7)].into();
        assert!(check_separation(&comps(), &labels).is_separated());
        assert_eq!(label_components(&comps(), &labels)[2], ComponentLabel::Pure(7));
    }
}
