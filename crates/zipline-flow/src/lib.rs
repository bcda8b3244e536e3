//! # zipline-flow — multi-tenant flow routing
//!
//! The routing layer in front of
//! [`CompressionEngine`](zipline_engine::CompressionEngine): many
//! concurrent flows from many tenants multiplex over one process (and,
//! via `zipline-server`, over one socket) without sharing compression
//! state. The implementation lives in
//! [`zipline_engine::tenant`] — next to the engine seams it rides — and
//! this crate is its public face.
//!
//! ## Placement invariant
//!
//! A flow's partition is a pure function of its [`FlowKey`]:
//! [`flow_placement`] hashes `(tenant, flow)` onto the tenant's pool and
//! collisions probe linearly, so placement depends only on which flows
//! are active — never on time or iteration order. Routing never changes
//! bytes: a flow pushed through the router emits bit-identical output to
//! the same data pushed through an isolated single-tenant engine (pinned
//! by the `flow_router` proptest suite in `zipline-engine`).
//!
//! ## Fairness invariant
//!
//! Tenants never share dictionary state — each flow owns its engine
//! partition, so the dictionary namespace is partitioned by construction
//! and one tenant's churn cannot evict another's bases. Capacity is a
//! budgeted slab share: at most
//! [`partitions_per_tenant`](FlowRouterConfig::partitions_per_tenant)
//! concurrent flows per tenant, opens past the budget rejected with
//! [`FlowError::TenantSaturated`], and the per-tenant ledger
//! ([`TenantStats`]) surfaces install/evict/ratio counters the way
//! per-shard stats do for one engine.
//!
//! ## Tagged control plane
//!
//! Every emission is a [`FlowEvent`] carrying its key; per flow,
//! dictionary updates interleave strictly before the payloads that need
//! them — the single-stream live-sync invariant, preserved per flow. The
//! receive side is [`FlowDecoderPool`]: one decoder per flow, so one
//! pool tracks many interleaved streams and one flow's churn never
//! perturbs another tenant's decoder state.

pub use zipline_engine::tenant::{
    flow_dir, flow_placement, plan_resume, reseed_updates, tenant_dir, FlowDecoderPool, FlowError,
    FlowEvent, FlowKey, FlowResume, FlowRouter, FlowRouterConfig, FlowSummary, TenantStats,
};
pub use zipline_engine::ReadySignal;

#[cfg(test)]
mod tests {
    use super::*;

    /// The re-export surface is usable end to end through this crate
    /// alone: open, push, finish, decode.
    #[test]
    fn crate_surface_roundtrips_one_flow() {
        use zipline_engine::{EngineConfig, SpawnPolicy};
        use zipline_gd::GdConfig;

        let engine = EngineConfig {
            gd: GdConfig::for_parameters(8, 6).expect("valid parameters"),
            shards: 2,
            workers: 1,
            spawn: SpawnPolicy::Inline,
        };
        let mut config = FlowRouterConfig::new(engine);
        config.batch_units = 4;
        let mut router: FlowRouter = FlowRouter::new(config).expect("valid router config");
        let key = FlowKey::new(42, 7);
        router.open_flow(key, 0).expect("cold open");
        let data: Vec<u8> = (0..256u32).map(|i| (i % 251) as u8).collect();
        router.push(key, &data).expect("push");
        router.end_flow(key).expect("finish");

        let mut pool = FlowDecoderPool::new(engine);
        pool.open(key).expect("decoder open");
        let mut out = Vec::new();
        for event in router.drain_events() {
            pool.decode_event(&event, &mut out).expect("decode");
        }
        assert_eq!(out, data);
    }
}
