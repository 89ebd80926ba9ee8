//! The benchmark harness regenerating every table and figure of the
//! Auto-HPCnet paper's evaluation (§7).
//!
//! | Module | Regenerates |
//! |---|---|
//! | [`fig5`] | Fig. 5 — speedup and prediction HitRate for 11 apps |
//! | [`table3`] | Table 3 — AMG counter study (FLOPs, L2 miss, BW, time) |
//! | [`fig6`] | Fig. 6 — Auto-HPCnet vs ACCEPT / perforation / Autokeras |
//! | [`efficiency`] | §7.2 — BO vs grid search steps per time unit |
//! | [`overhead`] | §7.3 — offline and online time breakdowns |
//! | [`ablation`] | A1 — hierarchical vs flat joint BO |
//! | [`ablation_cnn`] | extension — MLP vs CNN surrogate family |
//!
//! Every CPU number printed is measured wall clock; every GPU number is a
//! device-model output and is labeled `(modeled)`.

pub mod ablation;
pub mod ablation_cnn;
pub mod efficiency;
pub mod fig5;
pub mod fig6;
pub mod overhead;
pub mod profile;
pub mod table3;

pub use profile::RunProfile;
