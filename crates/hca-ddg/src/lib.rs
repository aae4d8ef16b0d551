//! # hca-ddg — Data Dependency Graph substrate
//!
//! The Data Dependency Graph (DDG) is the compiler-side input of the whole
//! Hierarchical Cluster Assignment (HCA) pipeline: its nodes are the
//! instructions of an innermost multimedia loop body, its edges are data
//! dependences annotated with a **latency** (cycles the consumer must wait
//! after the producer issues) and an iteration **distance** (0 for
//! intra-iteration flow dependences, ≥ 1 for loop-carried recurrences).
//!
//! Besides graph storage and construction this crate provides the analyses
//! every later pass relies on:
//!
//! * topological ordering of the intra-iteration subgraph,
//! * ASAP / ALAP levels and slack (used by the Space Exploration Engine's
//!   priority lists),
//! * strongly connected components (Tarjan) over the full graph,
//! * **MIIRec** — the recurrence-constrained Minimum Initiation Interval,
//!   computed exactly via a binary search over candidate II values with a
//!   positive-cycle test (Bellman–Ford over edge weights
//!   `latency − II · distance`), as required by iterative modulo scheduling
//!   (Rau, MICRO '94) and by the paper's §4.2 cost model.
//!
//! The graph is deliberately index-based (`NodeId` / `EdgeId` are `u32`
//! newtypes) with contiguous adjacency storage, following the Rust
//! performance-book guidance for hot, oft-traversed structures.
//!
//! ```
//! use hca_ddg::{DdgBuilder, DdgAnalysis, Opcode};
//!
//! // A dot-product body: acc = mac(acc, a[i] * b[i]).
//! let mut b = DdgBuilder::default();
//! let pa = b.named(Opcode::AddrAdd, "a++");
//! b.carried(pa, pa, 1);
//! let a = b.op_with(Opcode::Load, &[pa]);
//! let acc = b.op_with(Opcode::Mac, &[a]);
//! b.carried(acc, acc, 1); // the reduction recurrence
//! let ddg = b.finish();
//!
//! let analysis = DdgAnalysis::compute(&ddg).unwrap();
//! assert_eq!(analysis.mii_rec, 2); // mac latency 2 over distance 1
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod builder;
pub mod dot;
pub mod graph;
pub mod op;
pub mod priority;
pub mod transform;

pub use analysis::{AsapAlap, DdgAnalysis};
pub use builder::DdgBuilder;
pub use graph::{Ddg, DdgEdge, DdgNode, EdgeId, NodeId, MAX_EDGE_WEIGHT, MAX_TOTAL_LATENCY};
pub use op::{LatencyModel, Opcode, ResourceClass};
pub use priority::{PriorityOrder, PriorityPolicy};
pub use transform::unroll;
