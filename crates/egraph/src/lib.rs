//! # egraph
//!
//! A from-scratch e-graph and equality-saturation engine, providing the subset of
//! the `egg` library's functionality that the Chassis compiler needs:
//!
//! * hash-consed e-nodes grouped into e-classes over a union-find ([`EGraph`]),
//!   stored in a table indexed by class id,
//! * congruence closure via [`EGraph::rebuild`],
//! * syntactic [`Pattern`]s, compiled into numbered variable slots, with a
//!   depth-first e-matcher and an operator index ([`OpIndex`]) from which each
//!   pattern node reads only the e-nodes of its own operator,
//! * non-destructive [`Rewrite`] rules and a saturation [`Runner`] with node,
//!   iteration and match limits (it reads no clock).
//!
//! Extraction is left to the client: Chassis's typed extractor needs the
//! target's operator table, which no generic cost function can see.
//!
//! # Match order
//!
//! Everything the runner does is a function of the order in which matches
//! are found, because a rule keeps only its first `match_limit` matches and
//! unions are applied in match order. That order is fixed: classes in
//! ascending id, then e-nodes in their order within the class, then the
//! choice of e-node at each nested pattern node, lexicographically in
//! pre-order.
//!
//! The operator index keeps, for each operator, its runs: the stretches of
//! consecutive e-nodes of one class that have that operator, in ascending
//! class id and then node order. A search looks up the runs of each of its
//! pattern's operators once. The root walks its operator's runs; a nested
//! pattern node binary-searches its operator's runs for the child class.
//! Either way the matcher visits exactly the e-nodes that a scan of each
//! class for the operator would accept, in the same order, and never looks
//! at an e-node of another operator. A search stops at its limit instead of
//! truncating afterwards. So the surviving matches, the union sequence, the
//! class ids, extraction and the frontiers built on them are the same as a
//! search that scans every class and truncates. Over one `Config::fast`
//! corpus sweep on `c99` and `arith-fma`, scanning looked at 11.3M e-nodes,
//! of which 14% had the operator sought; the index touches 1.4M, since a
//! pattern with an operator that no e-node has is not searched at all.
//!
//! # Rebuilding
//!
//! [`EGraph::rebuild`] sweeps every class in ascending id, canonicalizes and
//! sorts its e-nodes, and rebuilds the hash-cons memo; two classes holding
//! the same e-node are then unioned, the earlier-found class winning, and
//! the sweep repeats until nothing merges. `egg`'s rebuild instead walks a
//! worklist of merged classes through parent lists, touching only what
//! changed. Applied in the order a worklist finds them, congruent pairs
//! would let other classes win unions and renumber the e-graph: a change of
//! results. Applied sorted by (later class, e-node), with the earliest class
//! holding the e-node as the winning argument, they are exactly the sweep's
//! unions. A prototype of that order kept both saturation digests pinned in
//! `tests/saturation.rs` and the benchmark's frontier digests, but it still
//! canonicalized every class on each pass and was no faster: 143 ms against
//! 139 ms median over a single-threaded selector sweep of the corpus on a
//! 2-core VM. So the sweep stays.
//!
//! # Keeping children inline
//!
//! The engine copies e-nodes constantly: [`EGraph::add`] stores a new node
//! in its class and in the hash-cons memo, every [`EGraph::rebuild`] sweep
//! re-keys the memo with every node, the [`OpIndex`] keys each node with its
//! children zeroed once per iteration, and each instantiated right-hand side
//! builds its nodes afresh. A [`Language`] whose nodes hold their children
//! inline — `[Id; N]` for a fixed arity, or a small array and a length for
//! operators of varying arity — makes each of those copies a few words'
//! memcpy. Children in a `Vec<Id>` make each a heap allocation. Moving
//! Chassis's e-nodes to inline children, in one step with an allocation-free
//! empty search and a dense extraction table, cut the corpus's saturation
//! time by about a quarter. The trait does not require inline children,
//! since [`Language::children`] is a slice either way.
//!
//! # Example
//!
//! ```
//! use egraph::{EGraph, Language, Id};
//!
//! // A tiny language: variables and binary `+`.
//! #[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
//! enum Math { Var(&'static str), Add([Id; 2]) }
//!
//! impl Language for Math {
//!     fn children(&self) -> &[Id] {
//!         match self { Math::Var(_) => &[], Math::Add(c) => c }
//!     }
//!     fn children_mut(&mut self) -> &mut [Id] {
//!         match self { Math::Var(_) => &mut [], Math::Add(c) => c }
//!     }
//! }
//!
//! let mut eg: EGraph<Math> = EGraph::default();
//! let x = eg.add(Math::Var("x"));
//! let y = eg.add(Math::Var("y"));
//! let xy = eg.add(Math::Add([x, y]));
//! let yx = eg.add(Math::Add([y, x]));
//! eg.union(xy, yx);
//! eg.rebuild();
//! assert_eq!(eg.find(xy), eg.find(yx));
//! ```

pub mod egraph;
mod hash;
pub mod language;
pub mod pattern;
#[cfg(test)]
mod properties;
pub mod rewrite;
pub mod runner;
pub mod unionfind;

pub use egraph::{EClass, EGraph};
pub use language::{Id, Language, RecExpr};
pub use pattern::{Matches, OpIndex, PatVar, Pattern, PatternNode};
pub use rewrite::Rewrite;
pub use runner::{RunReport, Runner, RunnerLimits, StopReason};
pub use unionfind::UnionFind;
