//! The differential layer pinning `cvliw serve`: for arbitrary request
//! streams, the daemon's responses must be **byte-identical** to what a
//! one-shot compilation of each request would render — under one worker
//! or four, on a cold cache or a warm one, with duplicates coalesced or
//! served from cache.
//!
//! The oracle is deliberately naive: a fresh `CompileContext` per
//! request, no cache, no sharding, no memo. Anything the server's fast
//! paths change about the bytes — a stale cache entry, a fingerprint
//! collision mishandled, scratch state leaking from one job into the
//! next on a worker's recycled scratch, nondeterministic worker routing —
//! shows up here as a diff on a shrunken request stream. The loop pool
//! mixes small, medium and large loops, so a recycled scratch crosses
//! loop-size boundaries in both directions as well as machine and seed
//! boundaries.

use cvliw::machine::{paper_specs, MachineConfig};
use cvliw::replicate::{compile_stats_ctx, CompileContext, CompileOptions, Mode};
use cvliw::serve::testutil::request_line;
use cvliw::serve::{
    render_compile_error_body, render_ok_body, render_response, Server, ServerConfig,
};
use cvliw::workloads::{generate_loop, GeneratorParams};
use proptest::prelude::*;

/// One request: indices into the generated-loop pool and the paper
/// machine/mode tables, plus a seed count. Duplicates arise naturally
/// from the small index spaces.
#[derive(Clone, Debug)]
struct Req {
    loop_idx: usize,
    spec_idx: usize,
    mode_idx: usize,
    seeds: u32,
}

/// Generator settings the loop pool draws from: small, medium and large
/// chain counts and depths.
fn size_params(size: usize) -> GeneratorParams {
    let (chains, depth) = [((1, 2), (1, 3)), ((3, 6), (3, 6)), ((6, 8), (5, 8))][size];
    GeneratorParams {
        chains,
        depth,
        ..GeneratorParams::medium()
    }
}

/// A pool of `(generator seed, size class)` loops plus the request stream
/// over it.
fn arb_stream() -> impl Strategy<Value = (Vec<(u64, usize)>, Vec<Req>)> {
    let pool = prop::collection::vec((0u64..5000, 0usize..3), 2..=4);
    let req = (0usize..4, 0usize..6, 0usize..5, 1u32..3).prop_map(
        |(loop_idx, spec_idx, mode_idx, seeds)| Req {
            loop_idx,
            spec_idx,
            mode_idx,
            seeds,
        },
    );
    (pool, prop::collection::vec(req, 1..=12))
}

/// Renders exactly what a one-shot compile of this request would say,
/// with a context built fresh for this single request.
fn oneshot_response(id: u64, src: &str, spec: &str, mode: Mode, seeds: u32) -> String {
    let ddg = cvliw::ir::parse_loop(src)
        .expect("printed loop reparses")
        .ddg;
    let machine = MachineConfig::from_extended_spec(spec).expect("paper spec");
    let ctx = CompileContext::new(&ddg, &machine).with_refine_seeds(seeds);
    let opts = CompileOptions { mode, max_ii: None };
    let mut body = String::new();
    match compile_stats_ctx(&ddg, &machine, &opts, &ctx) {
        Ok(stats) => render_ok_body(&stats, &mut body),
        Err(e) => render_compile_error_body(&e, &mut body),
    }
    let mut out = String::new();
    render_response(Some(id), &body, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn server_responses_match_oneshot_compilation(
        input in arb_stream(),
    ) {
        let (pool_seeds, stream) = input;
        let pool: Vec<String> = pool_seeds
            .iter()
            .map(|&(s, size)| {
                let l = generate_loop(s, &size_params(size)).expect("generator is total");
                cvliw::ir::print_loop("gen", &l.ddg)
            })
            .collect();
        let specs = paper_specs();
        let modes = Mode::ALL;

        let mut expected = String::new();
        let mut lines = Vec::with_capacity(stream.len());
        for (i, r) in stream.iter().enumerate() {
            let id = i as u64;
            let src = &pool[r.loop_idx % pool.len()];
            let spec = specs[r.spec_idx];
            let mode = modes[r.mode_idx];
            lines.push(request_line(id, src, spec, mode.name(), r.seeds));
            expected.push_str(&oneshot_response(id, src, spec, mode, r.seeds));
        }

        // Cold, one worker.
        let mut s1 = Server::new(ServerConfig { jobs: 1, ..ServerConfig::default() });
        let mut out1 = String::new();
        s1.process_batch(&lines, &mut out1);
        prop_assert_eq!(&out1, &expected, "jobs=1 cold diverged from one-shot");

        // Cold, four workers: sharding must not change a byte.
        let mut s4 = Server::new(ServerConfig { jobs: 4, ..ServerConfig::default() });
        let mut out4 = String::new();
        s4.process_batch(&lines, &mut out4);
        prop_assert_eq!(&out4, &expected, "jobs=4 cold diverged from one-shot");

        // Warm replay on the same server: every response now comes from
        // the cache and must still match the fresh-context oracle.
        let mut warm = String::new();
        s4.process_batch(&lines, &mut warm);
        prop_assert_eq!(&warm, &expected, "warm replay diverged from one-shot");
        // Cold duplicates coalesce; on the warm replay every line hits.
        prop_assert_eq!(s4.stats().hits, stream.len() as u64);
    }
}
