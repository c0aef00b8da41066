//! # agatha-align
//!
//! Sequence-alignment substrate for the AGAThA reproduction.
//!
//! This crate is the *ground truth* layer: it defines the sequence
//! representation (including the 4-bit input packing from GASAL2 that the
//! GPU kernels rely on), the affine-gap scoring model, and several scalar
//! reference implementations of the dynamic-programming recurrences from the
//! paper (Eq. 1–3):
//!
//! ```text
//! H(i,j) = max{ E(i,j), F(i,j), H(i-1,j-1) + S(R[i], Q[j]) }
//! E(i,j) = max{ H(i-1,j) - α, E(i-1,j) - β }     (gaps along the reference)
//! F(i,j) = max{ H(i,j-1) - α, F(i,j-1) - β }     (gaps along the query)
//! ```
//!
//! together with the *guiding strategy*: banding (`|i - j| ≤ w`) and the
//! Z-drop termination condition (Eq. 4–7), evaluated anti-diagonal by
//! anti-diagonal.
//!
//! Every engine in the workspace — the AGAThA kernel and all GPU baselines —
//! must produce results identical to [`guided::guided_align`]. Its loop,
//! [`guided::guided_align_until`], is the one that fills anti-diagonals
//! with the guided recurrence: the score-only callers pass it a no-op
//! per-cell observer, and [`traceback::guided_align_traced`] passes a
//! recorder of direction bytes, walked back by the same walker and
//! rendered by the same CIGAR renderer as the full-table oracle
//! [`matrix::full_align`]. [`banded::banded_align`] is the independently
//! ordered cross-check. The [`diag::DiagTracker`] in this crate is the
//! shared mechanism that makes the termination semantics independent of
//! tiling/execution order, and [`sweep::Sweep`] is the one block-row loop
//! (each row one segment, west boundary and corner handed block to block
//! within it, south boundary to the row below) that the kernel, the
//! [`block::block_grid_align`] reference driver, the benches and the tests
//! all drive.

#![deny(unsafe_code)]

pub mod banded;
pub mod base;
pub mod block;
pub mod diag;
pub mod guided;
pub mod matrix;
pub mod pack;
pub mod profile;
pub mod result;
pub mod scoring;
pub mod simd;
pub mod sweep;
pub mod task;
pub mod traceback;
pub mod xdrop;

pub use base::Base;
pub use block::{BlockCells, BlockCellsT, FillMode, FillTier};
pub use pack::PackedSeq;
pub use profile::QueryProfile;
pub use result::{GuidedResult, MaxCell};
pub use scoring::{ScoreModel, Scoring, SubstMatrix, BLOSUM62};
pub use task::{check_dims, Task, MAX_SEQ_LEN};

/// Sentinel for "minus infinity" in score space.
///
/// Chosen as `i32::MIN / 2` so that subtracting gap penalties from it can
/// never wrap around.
pub const NEG_INF: i32 = i32::MIN / 2;

/// Default side length of the square cell block used by all GPU-style
/// engines.
///
/// The paper packs 8 literals per 32-bit word (4 bits each) and configures
/// the score table "in units of blocks comprising 8×8 cells, which forms the
/// smallest unit for workload distribution" (§2.2). The block layer is
/// parameterized over the side (`B ∈ {8, 16, 32}`, see [`MAX_BLOCK`] and
/// [`MAX_STRIP`]); this is the paper's geometry and the default.
pub const BLOCK: usize = 8;

/// Widest block side a *single* block runs at: the 16×16 geometry whose
/// block anti-diagonals fill all 16 lanes of an AVX2 i16 vector, and whose
/// `2B−1 = 31` anti-diagonals fit one staging window — so the per-block
/// entry points (`compute_block_i16`, `on_block_i16`) take `B ≤ MAX_BLOCK`.
pub const MAX_BLOCK: usize = 16;

/// Widest row strip: the 32-lane geometry, one AVX-512 zmm of i16 lanes per
/// anti-diagonal. A 32×32 block has 63 anti-diagonals, more than one staging
/// window, so this side runs only as whole rows ([`sweep::Sweep::row`]),
/// which stage and fold window by window. Per-row storage (profile pad
/// slots, the fill's window scratch) is sized for it.
pub const MAX_STRIP: usize = 32;

/// Anti-diagonals one staging buffer holds, at every `B`: a single block's
/// `2B−1` at `B ≤` [`MAX_BLOCK`] (31 at 16; stable Rust cannot express
/// `[[T; B]; 2*B-1]`), or one window of a row segment's wavefront — which
/// folds, and re-centres its `i16` base, once per this many steps (see
/// [`simd`]). Fixed, not derived from the widest strip: the i16 gate's window
/// sum grows with it at every geometry.
pub const STAGE_ROWS: usize = 32;
