//! Property-based tests over core data structures and invariants.

use proptest::prelude::*;
use serde_json::json;

// ---------------------------------------------------------------------
// tsdb: line protocol and query invariants
// ---------------------------------------------------------------------

fn arb_ident() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_]{0,12}"
}

proptest! {
    /// Any point survives a line-protocol round trip.
    #[test]
    fn line_protocol_roundtrip(
        measurement in arb_ident(),
        tag_k in arb_ident(),
        tag_v in arb_ident(),
        field in arb_ident(),
        value in -1e12f64..1e12,
        int_val in any::<i32>(),
        ts in -1_000_000_000i64..1_000_000_000,
    ) {
        let p = pmove::tsdb::Point::new(measurement)
            .tag(tag_k, tag_v)
            .field(field, value)
            .field("i", int_val as i64)
            .timestamp(ts);
        let line = pmove::tsdb::line_protocol::render(&p);
        let back = pmove::tsdb::line_protocol::parse(&line).unwrap();
        prop_assert_eq!(back, p);
    }

    /// Sum over group-by buckets equals the whole-range sum.
    #[test]
    fn bucketed_sums_partition(values in prop::collection::vec(-1e6f64..1e6, 1..60)) {
        let db = pmove::tsdb::Database::new("prop");
        for (t, v) in values.iter().enumerate() {
            db.write_point(
                pmove::tsdb::Point::new("m").field("v", *v).timestamp(t as i64),
            ).unwrap();
        }
        let total = db.query("SELECT sum(\"v\") FROM \"m\"").unwrap();
        let bucketed = db.query("SELECT sum(\"v\") FROM \"m\" GROUP BY time(7)").unwrap();
        let t: f64 = total.rows[0].values["sum(v)"].unwrap();
        let b: f64 = bucketed.rows.iter().filter_map(|r| r.values["sum(v)"]).sum();
        prop_assert!((t - b).abs() < 1e-6 * t.abs().max(1.0));
    }
}

// ---------------------------------------------------------------------
// docdb: filter and update invariants
// ---------------------------------------------------------------------

proptest! {
    /// find(eq) returns exactly the docs whose value was inserted.
    #[test]
    fn docdb_equality_complete(keys in prop::collection::vec(0u32..20, 1..40)) {
        let col = pmove::docdb::Database::new("prop").collection("prop");
        for (i, k) in keys.iter().enumerate() {
            col.insert_one(json!({"_id": format!("d{i}"), "k": k})).unwrap();
        }
        for probe in 0u32..20 {
            let expected = keys.iter().filter(|&&k| k == probe).count();
            let got = col.find(&json!({"k": probe})).unwrap().len();
            prop_assert_eq!(got, expected);
        }
    }
}

// ---------------------------------------------------------------------
// spmv: structural and numeric invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CSR built from random COO entries is always structurally valid and
    /// preserves the per-(row, col) sums.
    #[test]
    fn csr_from_coo_valid(
        entries in prop::collection::vec((0u32..30, 0u32..30, -10.0f64..10.0), 0..150)
    ) {
        let mut coo = pmove::spmv::coo::Coo::new(30, 30);
        for (r, c, v) in &entries {
            coo.push(*r, *c, *v);
        }
        let m = pmove::spmv::csr::Csr::from_coo(&coo);
        prop_assert!(m.validate().is_ok());
        // Sum of all values is preserved.
        let coo_sum: f64 = entries.iter().map(|(_, _, v)| v).sum();
        let csr_sum: f64 = m.values.iter().sum();
        prop_assert!((coo_sum - csr_sum).abs() < 1e-9);
    }

    /// Every reordering strategy yields a true permutation and PAPᵀ
    /// preserves nnz on symmetric matrices.
    #[test]
    fn reorderings_are_permutations(side in 4usize..14, seed in 0u64..500) {
        let m = pmove::spmv::gen::mesh2d(side, side, seed, true);
        for strat in [
            pmove::spmv::reorder::Reordering::Rcm,
            pmove::spmv::reorder::Reordering::Degree,
            pmove::spmv::reorder::Reordering::Random(seed),
        ] {
            let p = strat.permutation(&m);
            let mut seen = vec![false; p.len()];
            for &v in &p {
                prop_assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
            let r = strat.apply(&m);
            prop_assert!(r.validate().is_ok());
            prop_assert_eq!(r.nnz(), m.nnz());
        }
    }

    /// Merge-path SpMV equals the sequential reference for any partition
    /// count on random matrices.
    #[test]
    fn merge_spmv_matches_reference(
        n in 5usize..60,
        row_nnz in 1usize..8,
        seed in 0u64..1000,
        parts in 1usize..40,
    ) {
        let a = pmove::spmv::gen::uniform_random(n, row_nnz, seed);
        let x = pmove::spmv::verify::test_vector(a.cols);
        let mut y_ref = vec![0.0; a.rows];
        pmove::spmv::row::spmv_seq(&a, &x, &mut y_ref);
        let mut y = vec![0.0; a.rows];
        pmove::spmv::merge::spmv_merge(&a, &x, &mut y, parts);
        for (u, v) in y_ref.iter().zip(&y) {
            prop_assert!((u - v).abs() < 1e-9);
        }
    }

    /// Merge-path search: coordinates are monotone and consume the whole
    /// path.
    #[test]
    fn merge_path_search_consistent(
        row_lens in prop::collection::vec(0u32..10, 1..30)
    ) {
        let mut ends = Vec::with_capacity(row_lens.len());
        let mut acc = 0;
        for l in &row_lens {
            acc += l;
            ends.push(acc);
        }
        let nnz = acc as usize;
        let path = ends.len() + nnz;
        let mut prev = pmove::spmv::merge::merge_path_search(0, &ends, nnz);
        prop_assert_eq!(prev.row + prev.nz, 0);
        for d in 1..=path {
            let cur = pmove::spmv::merge::merge_path_search(d, &ends, nnz);
            prop_assert_eq!(cur.row + cur.nz, d);
            prop_assert!(cur.row >= prev.row && cur.nz >= prev.nz);
            prev = cur;
        }
        prop_assert_eq!(prev.row, ends.len());
        prop_assert_eq!(prev.nz, nnz);
    }
}

// ---------------------------------------------------------------------
// jsonld / abstraction: parser invariants
// ---------------------------------------------------------------------

proptest! {
    /// DTMIs built from valid segments always parse back to themselves.
    #[test]
    fn dtmi_roundtrip(
        segs in prop::collection::vec("[a-z][a-z0-9]{0,8}", 1..5),
        version in 1u32..100,
    ) {
        let d = pmove::jsonld::Dtmi::new(segs, version).unwrap();
        let back = pmove::jsonld::Dtmi::parse(&d.to_string()).unwrap();
        prop_assert_eq!(back, d);
    }

    /// Formula display → parse is the identity, and evaluation with
    /// constant resolver is precedence-correct against a shadow evaluator.
    #[test]
    fn formula_roundtrip_and_eval(
        ops in prop::collection::vec((0usize..4, 1.0f64..50.0), 1..6),
        first in 1.0f64..50.0,
    ) {
        let op_chars = ['+', '-', '*', '/'];
        let mut text = format!("{first}");
        for (o, v) in &ops {
            text.push_str(&format!(" {} {}", op_chars[*o], v));
        }
        let f = pmove::core::abstraction::Formula::parse(&text).unwrap();
        let back = pmove::core::abstraction::Formula::parse(&f.to_string()).unwrap();
        prop_assert_eq!(&back, &f);
        // Shadow evaluation with standard precedence.
        let mut values = vec![first];
        let mut add_ops: Vec<char> = Vec::new();
        for (o, v) in &ops {
            match op_chars[*o] {
                '*' => *values.last_mut().unwrap() *= v,
                '/' => *values.last_mut().unwrap() /= v,
                c => { add_ops.push(c); values.push(*v); }
            }
        }
        let mut expect = values[0];
        for (c, v) in add_ops.iter().zip(&values[1..]) {
            if *c == '+' { expect += v } else { expect -= v }
        }
        let got = f.eval(|_| None).unwrap_or_else(|_| f.eval(|_| Some(0.0)).unwrap());
        // No events in this formula: eval never consults the resolver.
        prop_assert!((got - expect).abs() <= 1e-9 * expect.abs().max(1.0));
    }

    /// Aggregation: mean is always within [min, max]; sum = mean × count.
    #[test]
    fn aggregate_consistency(values in prop::collection::vec(-1e9f64..1e9, 1..100)) {
        let s = pmove::tsdb::aggregate::Summary::of(&values).unwrap();
        prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!((s.sum - s.mean * s.count as f64).abs() < 1e-3 * s.sum.abs().max(1.0));
        prop_assert_eq!(s.count as usize, values.len());
    }
}

// ---------------------------------------------------------------------
// dashboards and snapshots
// ---------------------------------------------------------------------

proptest! {
    /// Dashboards with arbitrary panels/targets survive the JSON file
    /// round trip (user-editable shareable files, §III-B).
    #[test]
    fn dashboard_json_roundtrip(
        panels in prop::collection::vec(
            (arb_ident(), prop::collection::vec((arb_ident(), arb_ident()), 0..5)),
            0..6,
        ),
        id in 1u32..100,
    ) {
        use pmove::core::dashboard::model::{Dashboard, Datasource, Target};
        let mut d = Dashboard::new(id, "prop");
        for (title, targets) in panels {
            let ts = targets
                .into_iter()
                .map(|(m, f)| Target {
                    datasource: Datasource::influx("UUkm1881"),
                    measurement: m,
                    params: f,
                })
                .collect();
            d = d.panel(title, ts);
        }
        let back = Dashboard::from_json(&d.to_json()).unwrap();
        prop_assert_eq!(back, d);
    }

    /// tsdb snapshot export/import preserves every (timestamp, value).
    #[test]
    fn tsdb_snapshot_roundtrip(values in prop::collection::vec(-1e9f64..1e9, 1..40)) {
        let src = pmove::tsdb::Database::new("src");
        for (t, v) in values.iter().enumerate() {
            src.write_point(
                pmove::tsdb::Point::new("m").tag("tag", "x").field("v", *v).timestamp(t as i64),
            ).unwrap();
        }
        let doc = pmove::tsdb::snapshot::export_measurement(&src, "m", Some(("tag", "x"))).unwrap();
        let dst = pmove::tsdb::Database::new("dst");
        let n = pmove::tsdb::snapshot::import_measurement(&dst, &doc).unwrap();
        prop_assert_eq!(n, values.len());
        let got = dst.query("SELECT \"v\" FROM \"m\" WHERE tag='x'").unwrap();
        for (row, v) in got.rows.iter().zip(&values) {
            prop_assert_eq!(row.values["v"], Some(*v));
        }
    }

    /// DTMI hierarchy laws: a child extends its parent's path by one
    /// segment at the same version; is_within is reflexive and respects
    /// ancestry.
    #[test]
    fn dtmi_hierarchy_laws(
        segs in prop::collection::vec("[a-z][a-z0-9]{0,6}", 1..4),
        extra in "[a-z][a-z0-9]{0,6}",
        version in 1u32..20,
    ) {
        let base = pmove::jsonld::Dtmi::new(segs, version).unwrap();
        let child = base.child(&extra).unwrap();
        prop_assert_eq!(&child.segments[..base.segments.len()], &base.segments[..]);
        prop_assert_eq!(child.segments.len(), base.segments.len() + 1);
        prop_assert_eq!(child.version, base.version);
        prop_assert!(child.is_within(&base));
        prop_assert!(base.is_within(&base));
        prop_assert!(!base.is_within(&child));
        prop_assert_eq!(child.local_name(), extra);
    }
}

// ---------------------------------------------------------------------
// hwsim: execution-model invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Windows always partition the totals, whatever the window split.
    #[test]
    fn execution_windows_partition(
        flops in 1u64..1_000_000_000,
        loads in 1u64..1_000_000_000,
        cut in 0.0f64..1.0,
    ) {
        use pmove::hwsim::kernel_profile::{KernelProfile, Precision};
        use pmove::hwsim::vendor::IsaExt;
        let p = KernelProfile::named("prop")
            .with_threads(4)
            .with_flops(IsaExt::Avx2, Precision::F64, flops)
            .with_mem(loads, loads / 2, IsaExt::Avx2)
            .with_working_set(1 << 26);
        let exec = pmove::hwsim::ExecModel::new(pmove::hwsim::MachineSpec::icl()).run(&p, 1.0);
        let q = pmove::hwsim::Quantity::LoadInstr;
        let total = exec.quantity_total(q);
        let mid = exec.start_s + exec.duration_s * cut;
        let a = exec.quantity_in_window(q, 0.0, mid);
        let b = exec.quantity_in_window(q, mid, 1e12);
        prop_assert!((a + b - total).abs() < 1e-6 * total.max(1.0));
        // Thread shares are a partition of unity over active threads.
        let share_sum: f64 = (0..4).map(|i| exec.thread_share(i)).sum();
        prop_assert!((share_sum - 1.0).abs() < 1e-9);
    }
}
