//! Answer checks for live-runtime queries.
//!
//! A reply passes when every reported match satisfies the query with the
//! attribute values its node really has, and no node is reported twice.
//! σ-satisfaction — `min(matches, σ) / min(truth, σ)` — is returned for the
//! caller to gate: the overlay must find σ matches whenever σ exist.

use std::collections::HashSet;
use std::fmt;

use attrspace::{Point, Query};
use autosel_core::Match;
use epigossip::NodeId;

/// Why an answer was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// A reported node does not satisfy the query.
    WrongMatch(NodeId),
    /// A reported node's values differ from the values it was spawned with.
    WrongValues(NodeId),
    /// A reported node is unknown to the cluster.
    UnknownNode(NodeId),
    /// A node was reported more than once.
    Duplicate(NodeId),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::WrongMatch(n) => write!(f, "node {n} reported but does not match"),
            CheckError::WrongValues(n) => {
                write!(f, "node {n} reported with values it does not have")
            }
            CheckError::UnknownNode(n) => write!(f, "node {n} reported but not in the cluster"),
            CheckError::Duplicate(n) => write!(f, "node {n} reported twice"),
        }
    }
}

/// Checks one answer. `point_of` gives each node's true values. Returns the
/// answer's σ-satisfaction.
pub fn check_answer<'a>(
    query: &Query,
    sigma: u32,
    truth: usize,
    matches: &[Match],
    point_of: impl Fn(NodeId) -> Option<&'a Point>,
) -> Result<f64, CheckError> {
    let mut seen = HashSet::with_capacity(matches.len());
    for m in matches {
        if !seen.insert(m.node) {
            return Err(CheckError::Duplicate(m.node));
        }
        let real = point_of(m.node).ok_or(CheckError::UnknownNode(m.node))?;
        if *real != m.values {
            return Err(CheckError::WrongValues(m.node));
        }
        if !query.matches(real) {
            return Err(CheckError::WrongMatch(m.node));
        }
    }
    Ok(sigma_satisfaction(matches.len(), truth, sigma))
}

/// `min(found, σ) / min(truth, σ)`; 1 when nothing matches.
pub fn sigma_satisfaction(found: usize, truth: usize, sigma: u32) -> f64 {
    let want = truth.min(sigma as usize);
    if want == 0 {
        1.0
    } else {
        found.min(sigma as usize) as f64 / want as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrspace::Space;

    fn fixture() -> (Space, Query, Vec<Point>) {
        let space = Space::uniform(2, 80, 3).expect("space");
        let query = Query::builder(&space).min("a0", 40).build().expect("query");
        let points = [[50, 1], [10, 1], [60, 70], [79, 0]]
            .iter()
            .map(|v| space.point(v).expect("point"))
            .collect();
        (space, query, points)
    }

    fn m(points: &[Point], node: NodeId) -> Match {
        Match {
            node,
            values: points[node as usize].clone(),
        }
    }

    #[test]
    fn accepts_a_correct_answer() {
        let (_, q, pts) = fixture();
        let lookup = |n: NodeId| pts.get(n as usize);
        let answer = [m(&pts, 0), m(&pts, 2), m(&pts, 3)];
        assert_eq!(check_answer(&q, 8, 3, &answer, lookup), Ok(1.0));
        // σ = 2 bounds what is wanted: two of three suffice.
        assert_eq!(check_answer(&q, 2, 3, &answer[..2], lookup), Ok(1.0));
        assert_eq!(check_answer(&q, 8, 3, &answer[..1], lookup), Ok(1.0 / 3.0));
    }

    #[test]
    fn rejects_a_planted_wrong_match() {
        let (_, q, pts) = fixture();
        let lookup = |n: NodeId| pts.get(n as usize);
        let answer = [m(&pts, 0), m(&pts, 1)];
        assert_eq!(
            check_answer(&q, 8, 3, &answer, lookup),
            Err(CheckError::WrongMatch(1))
        );
        // Matching values claimed for a node that does not have them.
        let forged = [Match {
            node: 1,
            values: pts[0].clone(),
        }];
        assert_eq!(
            check_answer(&q, 8, 3, &forged, lookup),
            Err(CheckError::WrongValues(1))
        );
        let ghost = [Match {
            node: 9,
            values: pts[0].clone(),
        }];
        assert_eq!(
            check_answer(&q, 8, 3, &ghost, lookup),
            Err(CheckError::UnknownNode(9))
        );
    }

    #[test]
    fn rejects_a_planted_duplicate() {
        let (_, q, pts) = fixture();
        let lookup = |n: NodeId| pts.get(n as usize);
        let answer = [m(&pts, 2), m(&pts, 0), m(&pts, 2)];
        assert_eq!(
            check_answer(&q, 8, 3, &answer, lookup),
            Err(CheckError::Duplicate(2))
        );
    }

    #[test]
    fn sigma_satisfaction_is_vacuous_without_matches() {
        assert_eq!(sigma_satisfaction(0, 0, 8), 1.0);
        assert_eq!(sigma_satisfaction(20, 100, 8), 1.0);
        assert_eq!(sigma_satisfaction(4, 100, 8), 0.5);
    }
}
