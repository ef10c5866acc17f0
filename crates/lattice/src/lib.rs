//! # sjava-lattice
//!
//! Location lattices and composite locations for Self-Stabilizing Java
//! (PLDI 2012): the lattice machinery of chapter 3, the hierarchy graphs of
//! chapter 5, and the Dedekind–MacNeille completion used to turn inferred
//! partial orders into lattices.
//!
//! ```
//! use sjava_lattice::{Lattice, CompositeLoc, SimpleCtx, compare};
//! use std::cmp::Ordering;
//!
//! let method = Lattice::from_decl(
//!     &[("STR".into(), "WDOBJ".into()), ("WDOBJ".into(), "IN".into())],
//!     &[], &[],
//! ).expect("acyclic");
//! let fields: Vec<(String, Lattice)> = Vec::new();
//! let ctx = SimpleCtx { method: &method, fields: &fields };
//! let lo = CompositeLoc::method("STR");
//! let hi = CompositeLoc::method("IN");
//! assert_eq!(compare(&ctx, &lo, &hi), Some(Ordering::Less));
//! ```

#![warn(missing_docs)]

pub mod completion;
pub mod composite;
pub mod dot;
pub mod fingerprint;
pub mod fnv;
pub mod hierarchy;
pub mod intern;
pub mod lattice;
pub mod paths;
pub mod shard;

pub use completion::{
    canonical_key, dedekind_macneille, dedekind_macneille_dense, Completion, CompletionCache,
};
pub use composite::{
    compare, from_loc_id, glb, is_shared, may_flow, CompositeLoc, Elem, LatticeCtx, SimpleCtx,
    Space,
};
pub use dot::lattice_to_dot;
pub use fingerprint::{mix, Fnv64};
pub use fnv::{FnvBuildHasher, FnvHashMap};
pub use hierarchy::HierarchyGraph;
pub use intern::{LocInterner, LocRef};
pub use lattice::{Lattice, LatticeError, LocId, BOTTOM, TOP};
pub use paths::{count_paths, is_complex, COMPLEX_THRESHOLD};
pub use shard::ShardedMemo;
