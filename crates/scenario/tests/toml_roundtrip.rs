//! Scenario ⇄ TOML round-trip properties, the pinned golden file, and
//! malformed-input error quality.

use mca_geom::{BoundingBox, Point};
use mca_radio::{FaultPlan, JamSpec};
use mca_scenario::{
    builtin_scenarios, ChurnSpec, DeploymentSpec, FadingSpec, MobilitySpec, Scenario,
};
use mca_sinr::{ResolveMode, SinrParams};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Property: Scenario -> TOML -> Scenario is the identity, across every
// deployment / mobility / fading / churn / fault variant.
// ---------------------------------------------------------------------------

fn deployment_for(sel: u8, n: usize, a: f64, b: f64) -> DeploymentSpec {
    match sel {
        0 => DeploymentSpec::Uniform { n, side: a },
        1 => DeploymentSpec::Disk { n, radius: a },
        2 => DeploymentSpec::Grid {
            nx: (n % 7) + 1,
            ny: (n % 5) + 1,
            step: a,
            jitter: b / 10.0,
        },
        3 => DeploymentSpec::Line { n, spacing: a },
        4 => DeploymentSpec::Corridor {
            n,
            length: a,
            width: b,
        },
        _ => DeploymentSpec::Explicit(
            (0..n.min(8))
                .map(|i| Point::new(a * i as f64, b - i as f64))
                .collect(),
        ),
    }
}

fn mobility_for(sel: u8, lo: f64, hi: f64, pause: u64) -> MobilitySpec {
    match sel {
        0 => MobilitySpec::Static,
        1 => MobilitySpec::RandomWaypoint {
            speed_min: lo.min(hi),
            speed_max: lo.max(hi),
            pause,
        },
        _ => MobilitySpec::Convoy {
            groups: (pause as usize % 4) + 1,
            speed: hi,
            spread: lo,
            pause,
        },
    }
}

/// Node ids must stay inside the deployment (`< n_nodes`) — the decoder
/// rejects out-of-range ids, so the generator only produces valid ones.
fn churn_for(sel: u8, frac: f64, w0: u64, w1: u64, n_nodes: usize) -> ChurnSpec {
    let top = (n_nodes as u32).saturating_sub(1);
    match sel {
        0 => ChurnSpec::None,
        1 => ChurnSpec::Random {
            join_fraction: frac,
            join_window: (w0.min(w1), w0.max(w1)),
            crash_fraction: 1.0 - frac,
            crash_window: (w0.min(w1), w0.max(w1) + 10),
        },
        _ => ChurnSpec::Explicit {
            joins: vec![(0, w0), (top, w1)],
            crashes: vec![(top / 2, w0.max(w1))],
        },
    }
}

/// Jam channels likewise must stay inside the scenario's channel count.
fn faults_for(sel: u8, seed: u64, power: f64, n_nodes: usize, channels: u16) -> FaultPlan {
    let mut plan = FaultPlan::none();
    let node = |k: u64| (k % n_nodes as u64) as u32;
    match sel {
        0 => {}
        1 => {
            plan.crash_at(node(seed), seed % 300);
            plan.jam(JamSpec::Fixed {
                channel: (seed % channels as u64) as u16,
                from: 5,
                to: 5 + (seed % 100),
                power,
            });
        }
        _ => {
            plan.join_at(node(seed >> 8), seed % 50);
            plan.jam(JamSpec::Random {
                t: 1,
                total: channels,
                power,
                seed,
            });
        }
    }
    plan
}

proptest! {
    #[test]
    fn scenario_round_trips_through_toml(
        (dep_sel, mob_sel, churn_sel, fault_sel) in (0u8..6, 0u8..3, 0u8..3, 0u8..3),
        (n, a, b) in (1usize..40, 0.5..25.0f64, 0.5..15.0f64),
        (lo, hi, frac) in (0.0..0.5f64, 0.0..2.0f64, 0.0..1.0f64),
        (pause, w0, w1, seed) in (0u64..12, 0u64..200, 0u64..200, 0u64..u64::MAX),
        (channels, slots) in (1u16..17, 1u64..5_000),
        (with_area, with_fading, drop, fast) in (0u8..2, 0u8..2, 0u8..2, 0u8..2),
    ) {
        let deployment = deployment_for(dep_sel, n, a, b);
        let n_nodes = deployment.len().max(1);
        let mut builder = Scenario::builder("prop-world")
            .deployment(deployment)
            .mobility(mobility_for(mob_sel, lo, hi, pause))
            .churn(churn_for(churn_sel, frac, w0, w1, n_nodes))
            .faults(faults_for(fault_sel, seed, 1.0 + a, n_nodes, channels))
            .channels(channels)
            .max_slots(slots);
        if with_area == 1 {
            builder = builder.area(BoundingBox::new(
                Point::new(-a, -b),
                Point::new(a + 1.0, b + 2.0),
            ));
        }
        if with_fading == 1 {
            builder = builder.fading(FadingSpec {
                p_degrade: frac,
                p_recover: 1.0 - frac,
                bad: if drop == 1 {
                    mca_radio::ChannelCondition::dropped(b)
                } else {
                    mca_radio::ChannelCondition::interfered(b)
                },
            });
        }
        if fast == 1 {
            builder = builder.resolve_mode(ResolveMode::Fast { cutoff_factor: 1.0 + frac });
        }
        let scenario = builder.build();

        let text = scenario.to_toml();
        let back = Scenario::from_toml_str(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}\n--- TOML ---\n{text}")))?;
        prop_assert_eq!(&back, &scenario, "emitted TOML:\n{}", text);

        // Emission is stable: a second round-trip produces identical bytes.
        prop_assert_eq!(back.to_toml(), text);
    }

    #[test]
    fn sinr_params_round_trip_bitwise(
        alpha in 2.01..6.0f64,
        beta in 1.0..4.0f64,
        noise in 0.01..10.0f64,
        range in 0.5..50.0f64,
        eps in 0.01..0.99f64,
    ) {
        let params = SinrParams::with_range(alpha, beta, noise, range, eps);
        let scenario = Scenario::builder("phys").sinr(params).build();
        let back = Scenario::from_toml_str(&scenario.to_toml()).unwrap();
        // Float fields survive bit-for-bit, so derived radii match exactly.
        prop_assert_eq!(back.params.power.to_bits(), params.power.to_bits());
        prop_assert_eq!(
            back.params.transmission_range().to_bits(),
            params.transmission_range().to_bits()
        );
    }
}

use proptest::TestCaseError;

// ---------------------------------------------------------------------------
// Golden file: the emitted bytes of a built-in scenario are pinned.
// ---------------------------------------------------------------------------

#[test]
fn golden_static_uniform_emission_is_pinned() {
    let entry = &builtin_scenarios()[0];
    assert_eq!(entry.scenario.name, "static-uniform");
    let golden = include_str!("golden/static-uniform.toml");
    assert_eq!(
        entry.file_contents(),
        golden,
        "emitter layout changed; update tests/golden/static-uniform.toml \
         and the committed scenarios/ catalog (experiments artifacts --write)"
    );
}

#[test]
fn committed_catalog_matches_the_builtin_scenarios() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    for entry in builtin_scenarios() {
        let path = dir.join(entry.file_name());
        // The bytes are `experiments artifacts`' business; the world is ours.
        let loaded = Scenario::load(&path).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            loaded,
            entry.scenario,
            "{} drifted from the catalog (run `experiments artifacts --write`)",
            path.display()
        );
    }
}

// ---------------------------------------------------------------------------
// Malformed inputs: every error names the line and the field.
// ---------------------------------------------------------------------------

const VALID_TAIL: &str = "[deployment]\nkind = \"uniform\"\nn = 10\nside = 5.0\n";

#[test]
fn malformed_inputs_report_line_and_field() {
    // (source, expected line, expected path, expected message fragment)
    let cases: &[(String, usize, &str, &str)] = &[
        (
            format!("name = \"x\"\ntypo = 1\n{VALID_TAIL}"),
            2,
            "typo",
            "unknown field",
        ),
        (
            format!("name = \"x\"\n[sinr]\nbeta = 0.5\n{VALID_TAIL}"),
            3,
            "sinr.beta",
            "at least 1",
        ),
        (
            format!("name = \"x\"\n[sinr]\nnoise = -1.0\n{VALID_TAIL}"),
            3,
            "sinr.noise",
            "positive",
        ),
        (
            format!("name = \"x\"\n[sinr]\neps = 1.5\n{VALID_TAIL}"),
            3,
            "sinr.eps",
            "(0, 1)",
        ),
        (
            "name = \"x\"\n[deployment]\nkind = \"uniform\"\nside = 5.0\n".to_string(),
            2,
            "deployment.n",
            "missing required field",
        ),
        (
            "name = \"x\"\n[deployment]\nkind = \"uniform\"\nn = 10\nside = \"wide\"\n".to_string(),
            5,
            "deployment.side",
            "expected a number",
        ),
        (
            "name = \"x\"\n[deployment]\nkind = \"blob\"\n".to_string(),
            3,
            "deployment.kind",
            "unknown deployment kind",
        ),
        (
            format!(
                "name = \"x\"\n{VALID_TAIL}[mobility]\nkind = \"random-waypoint\"\n\
                 speed_min = 2.0\nspeed_max = 1.0\n"
            ),
            9,
            "mobility.speed_max",
            "at least speed_min",
        ),
        (
            format!("name = \"x\"\n{VALID_TAIL}[fading]\np_degrade = 1.5\np_recover = 0.5\npower = 1.0\n"),
            7,
            "fading.p_degrade",
            "[0, 1]",
        ),
        (
            format!("name = \"x\"\n{VALID_TAIL}[churn]\nkind = \"explicit\"\njoins = [[1, 2, 3]]\n"),
            8,
            "churn.joins[0]",
            "[node, slot]",
        ),
        (
            format!("name = \"x\"\n{VALID_TAIL}[faults]\ncrashes = [[-1, 5]]\n"),
            7,
            "faults.crashes[0]",
            "out of range",
        ),
        (
            format!("name = \"x\"\n{VALID_TAIL}[[faults.jam]]\nkind = \"fixed\"\nchannel = 0\n"),
            6,
            "faults.jam[0].power",
            "missing required field",
        ),
        (
            format!("name = \"x\"\nchannels = 0\n{VALID_TAIL}"),
            2,
            "channels",
            "at least 1",
        ),
        (
            format!("name = \"x\"\n{VALID_TAIL}[faults]\ncrashes = [[99, 5]]\n"),
            7,
            "faults.crashes[0]",
            "out of range for a 10-node deployment",
        ),
        (
            format!(
                "name = \"x\"\nchannels = 2\n{VALID_TAIL}[[faults.jam]]\nkind = \"fixed\"\nchannel = 5\npower = 1.0\n"
            ),
            9,
            "faults.jam[0].channel",
            "out of range for 2 channels",
        ),
        (
            format!("name = \"x\"\n[sinr]\nrange = 1e200\n{VALID_TAIL}"),
            3,
            "sinr.range",
            "derived transmission power",
        ),
    ];
    for (src, line, path, fragment) in cases {
        let e = Scenario::from_toml_str(src).expect_err(src);
        assert_eq!(e.line, *line, "line of {e} for\n{src}");
        assert_eq!(e.path, *path, "path of {e} for\n{src}");
        assert!(
            e.message.contains(fragment),
            "message {e:?} lacks `{fragment}`"
        );
        // The rendered form shows both coordinates.
        let shown = e.to_string();
        assert!(shown.contains(&format!("line {line}")), "{shown}");
        assert!(shown.contains(path.split('[').next().unwrap()), "{shown}");
    }
}

#[test]
fn syntax_errors_report_the_line() {
    let cases: &[(&str, usize)] = &[
        ("name = \"x\"\n[deployment\nkind = \"uniform\"\n", 2),
        ("name = \"x\"\nn = = 1\n", 2),
        ("name = \"unterminated\nn = 1\n", 1),
        ("name = \"x\"\nn = [1, \n", 3),
    ];
    for (src, line) in cases {
        let e = Scenario::from_toml_str(src).expect_err(src);
        assert_eq!(e.line, *line, "{e} for\n{src}");
    }
}

#[test]
fn duplicate_sections_rejected() {
    let e = Scenario::from_toml_str(&format!(
        "name = \"x\"\n{VALID_TAIL}[sinr]\nalpha = 3.0\n[sinr]\nbeta = 1.5\n"
    ))
    .expect_err("duplicate [sinr]");
    assert_eq!(e.path, "sinr");
    assert!(e.message.contains("twice"), "{e}");
}
