//! Memory-management mechanisms for both layers of a virtualized system.
//!
//! This crate is the moral equivalent of the parts of `mm/` and KVM that
//! the paper modifies. It deliberately separates **mechanism** from
//! **policy**:
//!
//! - Mechanisms live here, implemented once in the generic
//!   [`LayerEngine`] and instantiated per layer: VMAs and demand paging
//!   in the guest ([`GuestMm`]), EPT-fault handling and host backing
//!   ([`HostMm`]), promotion (in-place, fill-and-promote, copy/migrate),
//!   demotion, unmapping, and the cycle/shootdown accounting for all of
//!   them.
//! - Policies (Linux THP, Ingens, HawkEye, CA-paging, Translation-ranger,
//!   and Gemini itself) implement the [`HugePolicy`] trait and are plugged
//!   into each layer independently — exactly the structure that produces
//!   the misalignment problem, and the seam Gemini's cross-layer
//!   coordination hooks into.
//!
//! Every mutating operation returns [`Effects`], the record of TLB
//! invalidations, shootdowns and cycle costs the whole-system simulator
//! must apply to its MMU model and clock.

pub mod aligned;
pub mod compaction;
pub mod costs;
pub mod engine;
pub mod frag;
pub mod guest;
pub mod host;
pub mod mech;
pub mod policy;
pub mod touch;
pub mod vma;

pub use aligned::{alignment_stats, AlignmentStats};
pub use compaction::Compactor;
pub use costs::CostModel;
pub use engine::{FaultSite, Layer, LayerEngine, LayerParts};
pub use frag::{fragmented, TenantChurn};
pub use guest::{GuestLayer, GuestMm};
pub use host::{HostLayer, HostMm};
pub use policy::{
    Effects, FaultCtx, FaultDecision, FaultOutcome, HugePolicy, LayerKind, LayerOps, PromotionKind,
    PromotionOp,
};
pub use touch::TouchMap;
pub use vma::{Vma, VmaId, VmaSet};
