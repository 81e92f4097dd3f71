//! One function per table/figure of §5. Each prints the same rows/series
//! the paper reports: absolute numbers differ — synthetic corpora and
//! simulated substrates — but the qualitative shape must hold. Run one
//! with `cargo run --release -p af-bench --bin <table|fig>` (all of them:
//! `--bin run_all`).

use crate::metrics::{pr_curve, quality};
use crate::report::{f2, f3, print_table};
use crate::runner::{
    af_curve_points, af_quality, baseline_quality, evaluate_autoformula, evaluate_baseline,
    org_cases, BaselineCase, CaseResult,
};
use crate::scenario::{EmbedderKind, Scenario, SystemSpec};
use af_baselines::gpt::{GptSim, PromptConfig};
use af_baselines::{
    Baseline, MondrianBaseline, PredictionContext, SpreadsheetCoderSim, WeakSupBaseline,
};
use af_core::index::IndexOptions;
use af_core::pipeline::{AutoFormula, PipelineVariant};
use af_corpus::organization::{OrgSpec, Scale};
use af_corpus::split::{split, Split, SplitKind};
use af_corpus::testcase::{masked_sheet, TestCase};
use af_corpus::weak_supervision::{label_precision, sheet_pairs, NameModel};
use af_embed::FeatureMask;
use std::time::{Duration, Instant};

/// Operating threshold θ* used by the single-number tables (the PR curves
/// sweep it). Overridable via `AF_THETA`.
pub fn operating_theta() -> f32 {
    std::env::var("AF_THETA").ok().and_then(|v| v.parse().ok()).unwrap_or(0.7)
}

fn mondrian_budget() -> Duration {
    let secs =
        std::env::var("AF_MONDRIAN_BUDGET").ok().and_then(|v| v.parse().ok()).unwrap_or(90u64);
    Duration::from_secs(secs)
}

/// Evaluate the full Auto-Formula system over every org under one split.
pub struct OrgEval {
    pub org: String,
    pub split: Split,
    pub cases: Vec<TestCase>,
    pub results: Vec<CaseResult>,
}

pub fn eval_orgs(
    scenario: &Scenario,
    af: &AutoFormula,
    kind: SplitKind,
    variant: PipelineVariant,
    index_opts: IndexOptions,
) -> Vec<OrgEval> {
    scenario
        .orgs
        .iter()
        .map(|corpus| {
            let sp = split(corpus, kind, 0.1, 0xA0);
            let cases = org_cases(corpus, &sp, 0x51);
            let index = af.build_index(&corpus.workbooks, &sp.reference, index_opts);
            let results = evaluate_autoformula(af, corpus, &index, &cases, variant);
            OrgEval { org: corpus.name.clone(), split: sp, cases, results }
        })
        .collect()
}

// ------------------------------------------------------------- Table 1

/// Table 1: statistics of test data.
pub fn table1() {
    let scenario = Scenario::standard();
    let mut rows = Vec::new();
    let mut tot = [0usize; 5];
    let mut cols: Vec<Vec<String>> = Vec::new();
    for corpus in &scenario.orgs {
        let st = corpus.stats();
        let sp_r = split(corpus, SplitKind::Random, 0.1, 0xA0);
        let sp_t = split(corpus, SplitKind::Timestamp, 0.1, 0xA0);
        let tf_r = org_cases(corpus, &sp_r, 0x51).len();
        let tf_t = org_cases(corpus, &sp_t, 0x51).len();
        tot[0] += st.workbooks;
        tot[1] += st.sheets;
        tot[2] += st.formulas;
        tot[3] += tf_r;
        tot[4] += tf_t;
        cols.push(vec![
            corpus.name.clone(),
            st.workbooks.to_string(),
            st.sheets.to_string(),
            st.formulas.to_string(),
            tf_r.to_string(),
            tf_t.to_string(),
        ]);
    }
    rows.push(vec![
        "All".to_string(),
        tot[0].to_string(),
        tot[1].to_string(),
        tot[2].to_string(),
        tot[3].to_string(),
        tot[4].to_string(),
    ]);
    rows.extend(cols);
    print_table(
        "Table 1: statistics of test data",
        &["corpus", "#workbooks", "#sheets", "#formulas", "#test (random)", "#test (timestamp)"],
        &rows,
    );
    // §3.1's similar-sheet prevalence check (40–90%).
    let rates: Vec<String> = scenario
        .orgs
        .iter()
        .map(|c| format!("{}: {:.0}%", c.name, 100.0 * c.similar_sheet_rate()))
        .collect();
    println!("similar-sheet prevalence (§3.1 reports 40–90%): {}", rates.join(", "));
}

// --------------------------------------------------------- Tables 2 & 3

fn quality_comparison(kind: SplitKind, title: &str) {
    let scenario = Scenario::standard();
    let af = scenario.system(SystemSpec::full(EmbedderKind::Sbert), scenario.default_cfg());
    let theta = operating_theta();
    let evals = eval_orgs(&scenario, &af, kind, PipelineVariant::Full, IndexOptions::default());

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut avg = [[0.0f64; 3]; 3];
    let mut mondrian_timeouts = 0;
    for ev in &evals {
        let corpus = scenario.orgs.iter().find(|o| o.name == ev.org).expect("org exists");
        let q_af = af_quality(&ev.results, theta);

        let mondrian =
            MondrianBaseline::build(&corpus.workbooks, &ev.split.reference, mondrian_budget());
        let q_m = match &mondrian {
            Ok(m) => {
                let r = evaluate_baseline(m, corpus, &ev.split, &ev.cases);
                Some(baseline_quality(&r))
            }
            Err(_) => {
                mondrian_timeouts += 1;
                None
            }
        };
        let ws = WeakSupBaseline::build(&corpus.workbooks, 0.05);
        let r_ws = evaluate_baseline(&ws, corpus, &ev.split, &ev.cases);
        let q_ws = baseline_quality(&r_ws);

        for (i, q) in [Some(q_af), q_m, Some(q_ws)].iter().enumerate() {
            if let Some(q) = q {
                avg[i][0] += q.recall;
                avg[i][1] += q.precision;
                avg[i][2] += q.f1;
            }
        }
        let fmt = |q: Option<crate::metrics::Quality>| -> Vec<String> {
            match q {
                Some(q) => vec![f2(q.recall), f2(q.precision), f2(q.f1)],
                None => vec!["[Time Out]".into(), "".into(), "".into()],
            }
        };
        let mut row = vec![ev.org.clone()];
        row.extend(fmt(Some(q_af)));
        row.extend(fmt(q_m));
        row.extend(fmt(Some(q_ws)));
        rows.push(row);
    }
    let n = evals.len() as f64;
    let mut avg_row = vec!["Overall Avg".to_string()];
    for (i, a) in avg.iter().enumerate() {
        // Mondrian average over the orgs it finished (paper leaves the
        // timed-out corpora out of its row too).
        let denom = if i == 1 { n - mondrian_timeouts as f64 } else { n };
        for v in a {
            avg_row.push(if denom > 0.0 { f2(v / denom) } else { "-".into() });
        }
    }
    let mut all_rows = vec![avg_row];
    all_rows.extend(rows);
    print_table(
        title,
        &[
            "corpus",
            "AF R",
            "AF P",
            "AF F1",
            "Mondrian R",
            "Mondrian P",
            "Mondrian F1",
            "WeakSup R",
            "WeakSup P",
            "WeakSup F1",
        ],
        &all_rows,
    );
    println!("(operating θ = {theta}; Mondrian budget = {:?})", mondrian_budget());
}

/// Table 2: quality comparison, timestamp split.
pub fn table2() {
    quality_comparison(SplitKind::Timestamp, "Table 2: quality (timestamp split)");
}

/// Table 3: quality comparison, random split.
pub fn table3() {
    quality_comparison(SplitKind::Random, "Table 3: quality (random split)");
}

// ---------------------------------------------------- Tables 4 & 5 (GPT)

/// The 180-case sample shared by Tables 4 and 5 (§5.2 "Comparison with
/// SpreadsheetCoder" / "Comparison with GPT").
fn sampled_180(scenario: &Scenario) -> Vec<(usize, Split, Vec<TestCase>)> {
    let mut out = Vec::new();
    for (oi, corpus) in scenario.orgs.iter().enumerate() {
        let sp = split(corpus, SplitKind::Timestamp, 0.1, 0xA0);
        let mut cases = org_cases(corpus, &sp, 0x51);
        cases.truncate(45); // 45 × 4 orgs = 180
        out.push((oi, sp, cases));
    }
    out
}

/// Table 4: the 24 GPT prompt variants + union.
pub fn table4() {
    let scenario = Scenario::standard();
    let sample = sampled_180(&scenario);
    let variants = PromptConfig::all();
    let mut per_variant = vec![(0usize, 0usize, 0usize); variants.len()]; // (n, pred, hit)
    let mut union_hits = 0usize;
    let mut union_n = 0usize;

    for (oi, sp, cases) in &sample {
        let corpus = &scenario.orgs[*oi];
        let gpt = GptSim::build(&corpus.workbooks, &sp.reference);
        for tc in cases {
            union_n += 1;
            let sheet = &corpus.workbooks[tc.workbook].sheets[tc.sheet];
            let masked = masked_sheet(sheet, tc.target);
            let gt = af_formula::parse_formula(&tc.ground_truth)
                .map(|e| e.to_string())
                .unwrap_or_default();
            let ctx = PredictionContext {
                workbooks: &corpus.workbooks,
                reference: &sp.reference,
                target_workbook: tc.workbook,
                target_sheet: tc.sheet,
                masked: &masked,
                target: tc.target,
            };
            let mut any = false;
            for (vi, (_, pred)) in gpt.predict_all(&ctx).into_iter().enumerate() {
                per_variant[vi].0 += 1;
                if let Some(p) = pred {
                    per_variant[vi].1 += 1;
                    if p.formula == gt {
                        per_variant[vi].2 += 1;
                        any = true;
                    }
                }
            }
            if any {
                union_hits += 1;
            }
        }
    }
    let mut rows = Vec::new();
    for (vi, cfg) in variants.iter().enumerate() {
        let (n, pred, hit) = per_variant[vi];
        let q = quality(n, pred, hit);
        rows.push(vec![cfg.label(), f3(q.recall), f3(q.precision), f3(q.f1)]);
    }
    let qu = quality(union_n, union_n, union_hits);
    rows.push(vec!["GPT-union (best-of-24)".into(), f3(qu.recall), f3(qu.precision), f3(qu.f1)]);
    print_table(
        "Table 4: GPT prompt-engineering variants (180-case sample)",
        &["variant", "R", "P", "F1"],
        &rows,
    );
}

/// Table 5: Auto-Formula vs SpreadsheetCoder vs GPT-union on 180 cases.
pub fn table5() {
    let scenario = Scenario::standard();
    let af = scenario.system(SystemSpec::full(EmbedderKind::Sbert), scenario.default_cfg());
    let theta = operating_theta();
    let sample = sampled_180(&scenario);

    let mut af_counts = (0usize, 0usize, 0usize);
    let mut ssc_counts = (0usize, 0usize, 0usize);
    let mut union_counts = (0usize, 0usize);
    for (oi, sp, cases) in &sample {
        let corpus = &scenario.orgs[*oi];
        let index = af.build_index(&corpus.workbooks, &sp.reference, IndexOptions::default());
        let rs = evaluate_autoformula(&af, corpus, &index, cases, PipelineVariant::Full);
        let q = af_quality(&rs, theta);
        af_counts.0 += q.n;
        af_counts.1 += q.n_pred;
        af_counts.2 += q.n_hit;

        let ssc: Vec<BaselineCase> = evaluate_baseline(&SpreadsheetCoderSim, corpus, sp, cases);
        ssc_counts.0 += ssc.len();
        ssc_counts.1 += ssc.iter().filter(|r| r.predicted).count();
        ssc_counts.2 += ssc.iter().filter(|r| r.correct).count();

        let gpt = GptSim::build(&corpus.workbooks, &sp.reference);
        for tc in cases {
            union_counts.0 += 1;
            let sheet = &corpus.workbooks[tc.workbook].sheets[tc.sheet];
            let masked = masked_sheet(sheet, tc.target);
            let gt = af_formula::parse_formula(&tc.ground_truth)
                .map(|e| e.to_string())
                .unwrap_or_default();
            let ctx = PredictionContext {
                workbooks: &corpus.workbooks,
                reference: &sp.reference,
                target_workbook: tc.workbook,
                target_sheet: tc.sheet,
                masked: &masked,
                target: tc.target,
            };
            if gpt
                .predict_all(&ctx)
                .into_iter()
                .any(|(_, p)| p.map(|x| x.formula == gt).unwrap_or(false))
            {
                union_counts.1 += 1;
            }
        }
    }
    let q_af = quality(af_counts.0, af_counts.1, af_counts.2);
    let q_ssc = quality(ssc_counts.0, ssc_counts.1, ssc_counts.2);
    let q_gpt = quality(union_counts.0, union_counts.0, union_counts.1);
    print_table(
        "Table 5: comparison on the 180-case sample",
        &["method", "R", "P", "F1"],
        &[
            vec!["Auto-Formula".into(), f3(q_af.recall), f3(q_af.precision), f3(q_af.f1)],
            vec!["SpreadsheetCoder".into(), f3(q_ssc.recall), f3(q_ssc.precision), f3(q_ssc.f1)],
            vec![
                "GPT-union (best-of-24)".into(),
                f3(q_gpt.recall),
                f3(q_gpt.precision),
                f3(q_gpt.f1),
            ],
        ],
    );
}

// --------------------------------------------------------------- Fig. 7

/// Fig. 7: PR curves per corpus (AF sweep; Mondrian/WeakSup points).
pub fn fig7() {
    let scenario = Scenario::standard();
    let af = scenario.system(SystemSpec::full(EmbedderKind::Sbert), scenario.default_cfg());
    let evals = eval_orgs(
        &scenario,
        &af,
        SplitKind::Timestamp,
        PipelineVariant::Full,
        IndexOptions::default(),
    );
    for ev in &evals {
        let corpus = scenario.orgs.iter().find(|o| o.name == ev.org).expect("org");
        println!("\n== Fig. 7 [{}]: PR curve (Auto-Formula) ==", ev.org);
        println!("  theta\trecall\tprecision");
        for p in pr_curve(&af_curve_points(&ev.results), ev.results.len()) {
            println!("  {:.3}\t{:.3}\t{:.3}", p.theta, p.recall, p.precision);
        }
        let ws = WeakSupBaseline::build(&corpus.workbooks, 0.05);
        let q_ws = baseline_quality(&evaluate_baseline(&ws, corpus, &ev.split, &ev.cases));
        println!("  WeakSup point: R={:.3} P={:.3}", q_ws.recall, q_ws.precision);
        match MondrianBaseline::build(&corpus.workbooks, &ev.split.reference, mondrian_budget()) {
            Ok(m) => {
                let q = baseline_quality(&evaluate_baseline(&m, corpus, &ev.split, &ev.cases));
                println!("  Mondrian point: R={:.3} P={:.3}", q.recall, q.precision);
            }
            Err(_) => println!("  Mondrian point: [Time Out]"),
        }
    }
}

// --------------------------------------------------------------- Fig. 8

/// Fig. 8: online prediction latency vs number of reference sheets, plus
/// offline per-sheet preprocessing costs.
pub fn fig8() {
    let scale = Scale::from_env();
    let sizes: Vec<usize> = match scale {
        Scale::Full => vec![10, 100, 1000, 10_000],
        _ => vec![10, 100, 1000],
    };
    // A large pool org to subsample reference sets from.
    let pool_spec = OrgSpec {
        name: "Pool",
        n_families: 160,
        instances_min: 4,
        instances_max: 8,
        n_singletons: 200,
        generic_name_rate: 0.4,
        string_singleton_bias: 0.4,
        seed: 0xF168,
    };
    let pool = pool_spec.generate();
    let scenario = Scenario::standard();
    println!("pool: {} workbooks, {} sheets", pool.workbooks.len(), pool.stats().sheets);

    let mut rows: Vec<Vec<String>> = Vec::new();
    for kind in [EmbedderKind::Sbert, EmbedderKind::Glove] {
        let af = scenario.system(SystemSpec::full(kind), scenario.default_cfg());
        for &size in &sizes {
            // Reference members until ~size sheets.
            let mut members = Vec::new();
            let mut sheets = 0usize;
            for (wi, wb) in pool.workbooks.iter().enumerate() {
                if sheets >= size {
                    break;
                }
                members.push(wi);
                sheets += wb.n_sheets();
            }
            if sheets < size {
                println!("(pool exhausted at {sheets} sheets for requested {size})");
            }
            let t0 = Instant::now();
            let index = af.build_index(&pool.workbooks, &members, IndexOptions::default());
            let build_s = t0.elapsed().as_secs_f64();
            // Online latency over 15 probe predictions.
            let probes = 15.min(pool.workbooks.len());
            let t0 = Instant::now();
            let mut made = 0usize;
            for wi in 0..probes {
                let sheet = &pool.workbooks[wi].sheets[0];
                if let Some((target, _)) = sheet.formulas().next() {
                    let masked = masked_sheet(sheet, target);
                    let _ = af.predict_with(&index, &masked, target, PipelineVariant::Full);
                    made += 1;
                }
            }
            let avg_ms = t0.elapsed().as_secs_f64() * 1000.0 / made.max(1) as f64;
            rows.push(vec![
                format!("Auto-Formula ({})", kind.label()),
                index.n_sheets().to_string(),
                format!("{avg_ms:.1}"),
                format!("{:.2}", build_s),
                format!("{:.1}", build_s * 1000.0 / index.n_sheets().max(1) as f64),
            ]);
        }
    }
    // Mondrian scaling (expect blowup / timeout at the larger sizes).
    for &size in &sizes {
        let mut members = Vec::new();
        let mut sheets = 0usize;
        for (wi, wb) in pool.workbooks.iter().enumerate() {
            if sheets >= size {
                break;
            }
            members.push(wi);
            sheets += wb.n_sheets();
        }
        let t0 = Instant::now();
        match MondrianBaseline::build(&pool.workbooks, &members, mondrian_budget()) {
            Ok(m) => {
                let build_s = t0.elapsed().as_secs_f64();
                let probes = 10.min(pool.workbooks.len());
                let t0 = Instant::now();
                let mut made = 0usize;
                for wi in 0..probes {
                    let sheet = &pool.workbooks[wi].sheets[0];
                    if let Some((target, _)) = sheet.formulas().next() {
                        let masked = masked_sheet(sheet, target);
                        let ctx = PredictionContext {
                            workbooks: &pool.workbooks,
                            reference: &members,
                            target_workbook: wi,
                            target_sheet: 0,
                            masked: &masked,
                            target,
                        };
                        let _ = m.predict(&ctx);
                        made += 1;
                    }
                }
                let avg_ms = t0.elapsed().as_secs_f64() * 1000.0 / made.max(1) as f64;
                rows.push(vec![
                    "Mondrian".into(),
                    m.n_sheets().to_string(),
                    format!("{avg_ms:.1}"),
                    format!("{build_s:.2}"),
                    format!("{:.1}", build_s * 1000.0 / m.n_sheets().max(1) as f64),
                ]);
            }
            Err(_) => {
                rows.push(vec![
                    "Mondrian".into(),
                    sheets.to_string(),
                    "[Time Out]".into(),
                    format!(">{}", mondrian_budget().as_secs()),
                    "-".into(),
                ]);
            }
        }
    }
    print_table(
        "Fig. 8: latency vs number of reference sheets",
        &["method", "#sheets", "predict ms", "offline build s", "offline ms/sheet"],
        &rows,
    );
}

// ------------------------------------------------------------ Figs. 9–11

/// Fig. 9: sensitivity to target-sheet size (row buckets). Bucket bounds
/// are scaled to the generated corpora (window = 40 rows; the paper's
/// effect — sheets much smaller than the window lose precision — shows up
/// below ~20 rows here).
pub fn fig9() {
    let scenario = Scenario::standard();
    let af = scenario.system(SystemSpec::full(EmbedderKind::Sbert), scenario.default_cfg());
    let theta = operating_theta();
    let evals = eval_orgs(
        &scenario,
        &af,
        SplitKind::Timestamp,
        PipelineVariant::Full,
        IndexOptions::default(),
    );
    let all: Vec<&CaseResult> = evals.iter().flat_map(|e| e.results.iter()).collect();
    let buckets: [(&str, u32, u32); 5] = [
        ("r<15", 0, 15),
        ("15<=r<25", 15, 25),
        ("25<=r<40", 25, 40),
        ("40<=r<55", 40, 55),
        ("55<=r", 55, u32::MAX),
    ];
    let mut rows = Vec::new();
    for (label, lo, hi) in buckets {
        let subset: Vec<CaseResult> = all
            .iter()
            .filter(|r| r.sheet_rows >= lo && r.sheet_rows < hi)
            .map(|r| (*r).clone())
            .collect();
        let q = af_quality(&subset, theta);
        rows.push(vec![label.to_string(), q.n.to_string(), f2(q.recall), f2(q.precision)]);
    }
    print_table(
        "Fig. 9: sensitivity to target-sheet rows",
        &["bucket", "#cases", "recall", "precision"],
        &rows,
    );
}

/// Shared machinery for Figs. 10–11: AF vs SpreadsheetCoder bucketed by a
/// case property.
fn bucketed_comparison(
    title: &str,
    bucket_of_af: impl Fn(&CaseResult) -> String,
    bucket_of_b: impl Fn(&BaselineCase) -> String,
    bucket_order: &[&str],
) {
    let scenario = Scenario::standard();
    let af = scenario.system(SystemSpec::full(EmbedderKind::Sbert), scenario.default_cfg());
    let theta = operating_theta();
    let evals = eval_orgs(
        &scenario,
        &af,
        SplitKind::Timestamp,
        PipelineVariant::Full,
        IndexOptions::default(),
    );
    let mut rows = Vec::new();
    // Collect AF + SSC results per org.
    let mut af_all: Vec<CaseResult> = Vec::new();
    let mut ssc_all: Vec<BaselineCase> = Vec::new();
    for ev in &evals {
        let corpus = scenario.orgs.iter().find(|o| o.name == ev.org).expect("org");
        af_all.extend(ev.results.iter().cloned());
        ssc_all.extend(evaluate_baseline(&SpreadsheetCoderSim, corpus, &ev.split, &ev.cases));
    }
    for bucket in bucket_order {
        let afs: Vec<CaseResult> =
            af_all.iter().filter(|r| bucket_of_af(r) == *bucket).cloned().collect();
        let sscs: Vec<BaselineCase> =
            ssc_all.iter().filter(|r| bucket_of_b(r) == *bucket).cloned().collect();
        let qa = af_quality(&afs, theta);
        let qs = baseline_quality(&sscs);
        rows.push(vec![
            bucket.to_string(),
            qa.n.to_string(),
            f2(qa.recall),
            f2(qa.precision),
            f2(qa.f1),
            f2(qs.recall),
            f2(qs.precision),
            f2(qs.f1),
        ]);
    }
    print_table(
        title,
        &["bucket", "#cases", "AF R", "AF P", "AF F1", "SSC R", "SSC P", "SSC F1"],
        &rows,
    );
}

/// Fig. 10: sensitivity to formula complexity (AST node count).
pub fn fig10() {
    bucketed_comparison(
        "Fig. 10: quality by formula length (AST nodes)",
        |r| af_formula::analysis::length_bucket(r.complexity).to_string(),
        |r| af_formula::analysis::length_bucket(r.complexity).to_string(),
        &af_formula::analysis::LENGTH_BUCKETS,
    );
}

/// Fig. 11: sensitivity to formula type.
pub fn fig11() {
    let order: Vec<String> = af_formula::FormulaType::ALL.iter().map(|t| t.to_string()).collect();
    let order_refs: Vec<&str> = order.iter().map(|s| s.as_str()).collect();
    bucketed_comparison(
        "Fig. 11: quality by formula type",
        |r| r.ftype.to_string(),
        |r| r.ftype.to_string(),
        &order_refs,
    );
}

// ------------------------------------------------------------ Figs. 12–15

fn pr_per_org(
    label: &str,
    scenario: &Scenario,
    af: &AutoFormula,
    variant: PipelineVariant,
    opts: IndexOptions,
) {
    let evals = eval_orgs(scenario, af, SplitKind::Timestamp, variant, opts);
    for ev in &evals {
        println!("\n-- {label} [{}] --", ev.org);
        println!("  theta\trecall\tprecision");
        for p in pr_curve(&af_curve_points(&ev.results), ev.results.len()) {
            println!("  {:.3}\t{:.3}\t{:.3}", p.theta, p.recall, p.precision);
        }
        let q = af_quality(&ev.results, operating_theta());
        println!("  @theta*: R={:.3} P={:.3} F1={:.3}", q.recall, q.precision, q.f1);
    }
}

/// Fig. 12: GloVe vs Sentence-BERT embeddings.
pub fn fig12() {
    let scenario = Scenario::standard();
    for kind in [EmbedderKind::Glove, EmbedderKind::Sbert] {
        let af = scenario.system(SystemSpec::full(kind), scenario.default_cfg());
        pr_per_org(
            &format!("Fig. 12 {}", kind.label()),
            &scenario,
            &af,
            PipelineVariant::Full,
            IndexOptions::default(),
        );
    }
}

/// Fig. 13: ablation — no content / no style features.
pub fn fig13() {
    let scenario = Scenario::standard();
    let arms = [
        ("Auto-Formula (full)", FeatureMask::FULL),
        ("No Content Feature", FeatureMask::NO_CONTENT),
        ("No Style Feature", FeatureMask::NO_STYLE),
    ];
    for (label, mask) in arms {
        let spec = SystemSpec { mask, ..SystemSpec::full(EmbedderKind::Sbert) };
        let af = scenario.system(spec, scenario.default_cfg());
        pr_per_org(
            &format!("Fig. 13 {label}"),
            &scenario,
            &af,
            PipelineVariant::Full,
            IndexOptions::default(),
        );
    }
}

/// Fig. 14: ablation — coarse-only / fine-only vs full pipeline.
pub fn fig14() {
    let scenario = Scenario::standard();
    let af = scenario.system(SystemSpec::full(EmbedderKind::Sbert), scenario.default_cfg());
    let opts = IndexOptions { fine_sheet_signatures: true, coarse_regions: true };
    for (label, variant) in [
        ("Auto-Formula (full)", PipelineVariant::Full),
        ("Coarse-grained-only", PipelineVariant::CoarseOnly),
        ("Fine-grained-only", PipelineVariant::FineOnly),
    ] {
        pr_per_org(&format!("Fig. 14 {label}"), &scenario, &af, variant, opts);
    }
}

/// Fig. 15: ablation — data augmentation.
pub fn fig15() {
    let scenario = Scenario::standard();
    let arms = [
        ("Full-DA (Auto-Formula)", true, true),
        ("Coarse-grained-DA-only", true, false),
        ("No-DA", false, false),
    ];
    for (label, cda, fda) in arms {
        let spec =
            SystemSpec { coarse_da: cda, fine_da: fda, ..SystemSpec::full(EmbedderKind::Sbert) };
        let af = scenario.system(spec, scenario.default_cfg());
        pr_per_org(
            &format!("Fig. 15 {label}"),
            &scenario,
            &af,
            PipelineVariant::Full,
            IndexOptions::default(),
        );
    }
}

// ---------------------------------------------------- §4.2 verification

/// Weak-supervision label quality against ground-truth provenance (§4.2
/// claims precision > 0.95 with limited recall).
pub fn weaksup_quality() {
    let scenario = Scenario::standard();
    let mut rows = Vec::new();
    for corpus in std::iter::once(&scenario.universe).chain(scenario.orgs.iter()) {
        let model = NameModel::build(&corpus.workbooks);
        let pairs = sheet_pairs(&corpus.workbooks, &model, 0.05, 6, 0x77);
        let precision = label_precision(&pairs.positives, |a, b| corpus.same_family(a, b));
        let neg_precision = label_precision(&pairs.negatives, |a, b| !corpus.same_family(a, b));
        // Pair recall: same-family workbook pairs caught.
        let n = corpus.workbooks.len();
        let mut total = 0usize;
        for i in 0..n {
            for j in i + 1..n {
                if corpus.same_family(i, j) {
                    total += 1;
                }
            }
        }
        let caught: std::collections::HashSet<(usize, usize)> = pairs
            .positives
            .iter()
            .map(|(a, b)| (a.workbook.min(b.workbook), a.workbook.max(b.workbook)))
            .collect();
        let recall = if total == 0 { 0.0 } else { caught.len() as f64 / total as f64 };
        rows.push(vec![
            corpus.name.clone(),
            pairs.positives.len().to_string(),
            f2(precision),
            f2(neg_precision),
            f2(recall.min(1.0)),
        ]);
    }
    print_table(
        "Weak supervision label quality (§4.2: precision > 0.95, low recall)",
        &["corpus", "#pos pairs", "pos precision", "neg precision", "pair recall"],
        &rows,
    );
}

/// Regenerate everything in order.
pub fn run_all() {
    let t0 = Instant::now();
    table1();
    weaksup_quality();
    table2();
    table3();
    table4();
    table5();
    fig7();
    fig8();
    fig9();
    fig10();
    fig11();
    fig12();
    fig13();
    fig14();
    fig15();
    println!("\n[run_all completed in {:.1}s]", t0.elapsed().as_secs_f64());
}
