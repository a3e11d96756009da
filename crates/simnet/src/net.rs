//! Hosting classification of service endpoints.
//!
//! §6.1 of the paper classifies Labeler endpoints by the kind of address they
//! resolve to: cloud-hosted / reverse-proxied (65 %), ISP-assigned
//! residential (10 %) and dead endpoints (26 %). The workload plan assigns
//! each labeler a [`HostingClass`] and the study's active measurement reads
//! it back from the service; no addresses are simulated.

/// Coarse hosting class of an endpoint address (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HostingClass {
    /// Cloud provider or reverse proxy (e.g. a CDN in front of the origin).
    Cloud,
    /// ISP-assigned residential address.
    Residential,
    /// No functional endpoint could be determined.
    Dead,
}
