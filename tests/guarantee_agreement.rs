//! The two-program answers pinned across the move onto `Analysis`:
//! `drf_guarantee`, `behaviour_refinement`, `sc_only_accepts` and
//! `classify_transformation_under` (sc/tso/pso), over every single-step
//! rewrite of every litmus program of at most 14 statements, must keep
//! the answers recorded when each of them built its own SC explorers.
//! `drf_guarantee` under tso and pso is pinned to the answers recorded
//! while both sides of the check still ran the buffered behaviour
//! engine on every program, before a DRF program's behaviours came
//! from the SC search.
//!
//! Each answer is recorded as an FNV-1a digest of its `Display` lines,
//! one digest per program and answer. The one change the shared
//! refinement rule allows, `Inconclusive` becoming `NewBehaviour` where
//! the original's behaviour set is complete, occurs nowhere in this
//! corpus, so every row is recorded as found.

use transafety::checker::{
    behaviour_refinement, classify_transformation_under, drf_guarantee, sc_only_accepts, Analysis,
};
use transafety::litmus::corpus;
use transafety::syntactic::all_rewrites;
use transafety::traces::MemoryModelKind;

/// Per litmus program: the number of rewrites, then the digests of the
/// guarantee, refinement, SC-only, sc/tso/pso classification and
/// tso/pso guarantee lines.
type Recorded = (usize, [u64; 8]);

#[rustfmt::skip]
const RECORDED_ANSWERS: &[(&str, Recorded)] = &[
    ("intro-original", (3, [0xff238d8f89e79f30, 0x6c70ab47730df33c, 0x577bb727e8574dab, 0x3b781ef4bf7fdbae, 0x6ee73c548dfe00ba, 0x469bd04d5dbc78d6, 0xff238d8f89e79f30, 0xff238d8f89e79f30])),
    ("intro-constant-propagated", (3, [0x71a4d958f45dcc88, 0x6c70ab47730df33c, 0x577bb727e8574dab, 0x3b781ef4bf7fdbae, 0x6ee73c548dfe00ba, 0x469bd04d5dbc78d6, 0x71a4d958f45dcc88, 0x71a4d958f45dcc88])),
    ("intro-volatile", (2, [0xd9efac40b3279e75, 0x552140ce66107535, 0x4a1bfe04038be3ab, 0xfefc36af0041995d, 0xcce6d7bc7d2ef9ca, 0x46e9c8ff6b4f71f2, 0xd9efac40b3279e75, 0xd9efac40b3279e75])),
    ("fig1-original", (4, [0xdca787a6e3393b7f, 0x91c1dc055ab360bb, 0x4c7027ff35f31247, 0x22ff5180dbce0238, 0xdbb0fb532f650c49, 0x626e318e5ad3d809, 0xdca787a6e3393b7f, 0xdca787a6e3393b7f])),
    ("fig1-transformed", (1, [0xbd41375d7b4a5daf, 0x3394a2d796c49bad, 0x3ec94af4cde83ac8, 0x53b11f358bd6087b, 0x66c4b0d33382c925, 0x3a7840f6ff894891, 0xbd41375d7b4a5daf, 0xbd41375d7b4a5daf])),
    ("fig2-original", (1, [0x51b8112bcada8609, 0x21e434122ff0405b, 0xc15b10a129f59de2, 0x3a1ac638ffec881d, 0xc13409d4a4ad1833, 0xeb6c89f388b4d16f, 0x51b8112bcada8609, 0x51b8112bcada8609])),
    ("fig2-transformed", (1, [0x2abe0df2f276c560, 0x7ac7a4631cb70d2c, 0x35f37747b85e471d, 0x211ba1a581476d66, 0xf1095ff36668b7d5, 0x1b41f0124a708c41, 0x2abe0df2f276c560, 0x2abe0df2f276c560])),
    ("fig3-a", (4, [0x9a08942913cd5753, 0x7eb54a8829a1ef4d, 0x7d829700d1994209, 0xd0fe972327c5a9c3, 0x96fbd5d032c152e9, 0x2b1b9c2f820cf1f9, 0x9a08942913cd5753, 0x9a08942913cd5753])),
    ("fig3-b", (6, [0x1830db6690363202, 0x7cd9ba774af437a6, 0xca655c42dab31a7a, 0x9cee2b670f8c3486, 0x48fcf03978645116, 0xb0e7a0a4c14578e6, 0x1830db6690363202, 0x1830db6690363202])),
    ("fig3-c", (4, [0x343a35c8f026a3cd, 0x8914d75afef4f50d, 0xc12e55e9edfb9111, 0x5cc2b4e16bbabd3d, 0x108690d6e1deec65, 0x8bcbbdfb1eebe5c5, 0x343a35c8f026a3cd, 0x343a35c8f026a3cd])),
    ("fig5-volatile", (2, [0x6edede212a34efe4, 0xa323ad9fc3409ef8, 0x4db758fba3a8ff4c, 0x88f26d08250b7eb0, 0x6b2b192d478a76a9, 0xb26647ea1b74b591, 0x6edede212a34efe4, 0x6edede212a34efe4])),
    ("fig5-transformed", (0, [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325])),
    ("oota", (0, [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325])),
    ("section4-worked", (5, [0x86ea553d9ee699ea, 0x31cf17b8e72a3169, 0x5d21832a2080d820, 0x1357591e86bc0509, 0xd1d98e646464eeac, 0x42255cd52462b868, 0x86ea553d9ee699ea, 0x86ea553d9ee699ea])),
    ("sb", (2, [0x5c0c7c35afa1f0f6, 0xb080c39d81e82d62, 0x5451d2cb518ab81c, 0x9870f3948c72f3fa, 0x7100aa03fdf2fb5e, 0x523cacc0cdcd5f46, 0x5c0c7c35afa1f0f6, 0x5c0c7c35afa1f0f6])),
    ("sb-volatile", (0, [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325])),
    ("mp", (2, [0xdb74861c53ca87e4, 0xed879d9c16121edd, 0x7dc539a70cf5cb19, 0x88f26d08250b7eb0, 0x6b2b192d478a76a9, 0xb26647ea1b74b591, 0xdb74861c53ca87e4, 0xdb74861c53ca87e4])),
    ("mp-volatile", (1, [0x5ea6257902188a3c, 0x3394a2d796c49bad, 0x3ec94af4cde83ac8, 0x53b11f358bd6087b, 0x66c4b0d33382c925, 0x3a7840f6ff894891, 0x5ea6257902188a3c, 0x5ea6257902188a3c])),
    ("mp-spin", (1, [0x5ea6257902188a3c, 0x3394a2d796c49bad, 0x3ec94af4cde83ac8, 0x3bde33eb874964e0, 0x14b02afba3bba640, 0xd5c0cb1ed4ec93dc, 0x5ea6257902188a3c, 0x5ea6257902188a3c])),
    ("lb", (2, [0x102cd403f358ea36, 0x15df6c2b3e9dcf12, 0x4c1c4d4f5169458a, 0x096a2d616746e95e, 0x143958985ab53d2a, 0xaa716ce697cf3972, 0x102cd403f358ea36, 0x102cd403f358ea36])),
    ("iriw", (2, [0xc83e9799ff71df7a, 0x638bfbbe282a19be, 0xc20abd59cad7b1aa, 0x3ee47c4a4afddaf6, 0x74cf2dce7e9caf7e, 0xbc5997617cac253e, 0xc83e9799ff71df7a, 0xc83e9799ff71df7a])),
    ("corr", (2, [0x461d8e0f399d8ecd, 0xe91aef55b2d9e338, 0x8eceea710d21933a, 0x9c8a0f3b197eb91e, 0x1ab9763017daa517, 0x038bababe2ac7317, 0x461d8e0f399d8ecd, 0x461d8e0f399d8ecd])),
    ("locked-counter", (1, [0xfa21aefcced5a709, 0xebd2a36c4d62773a, 0x00cac56d5019a497, 0xf7b2852ede05968b, 0x2cf727793b26fa35, 0x0410b79d0a10a2a1, 0xfa21aefcced5a709, 0xfa21aefcced5a709])),
    ("racy-counter", (1, [0x81e8267cdb739a25, 0xfd3f53c645a3909b, 0x22d434d1711bfba2, 0x1ee05c24069f854e, 0xbc18e560aa54437a, 0xfe01853d7baa19be, 0x81e8267cdb739a25, 0x81e8267cdb739a25])),
    ("dekker-core", (0, [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325])),
    ("redundant-load-pair", (2, [0x11d62ceeeffcdd3f, 0x9ddf80c465cfb419, 0x6b829c2ab1173a11, 0x8bfa7a9102f1f7d6, 0x4247a75e1eca7f61, 0x3a413fc05e02ff61, 0x11d62ceeeffcdd3f, 0x11d62ceeeffcdd3f])),
    ("store-forward", (1, [0x33f43eb0e6369c9b, 0x9f5044e458afd941, 0xbee10b75114104cc, 0x155666d8f7e497d8, 0x24121c7160418118, 0xf7c59c952c47e554, 0x33f43eb0e6369c9b, 0x33f43eb0e6369c9b])),
    ("overwritten-store", (1, [0x9fcad21fe97d42ac, 0x3394a2d796c49bad, 0x3ec94af4cde83ac8, 0x53b11f358bd6087b, 0x66c4b0d33382c925, 0x3a7840f6ff894891, 0x9fcad21fe97d42ac, 0x9fcad21fe97d42ac])),
    ("sb-locked", (4, [0x9a08942913cd5753, 0x7eb54a8829a1ef4d, 0x7d829700d1994209, 0xd0fe972327c5a9c3, 0x96fbd5d032c152e9, 0x2b1b9c2f820cf1f9, 0x9a08942913cd5753, 0x9a08942913cd5753])),
    ("wrc", (1, [0x4b5131925dd2a80c, 0xd82c2bd5d46caa54, 0x4aea7147330b09e9, 0x4362ab799367747f, 0x9ca67c0c30dce9b0, 0x5a511c2f5f2aae4c, 0x4b5131925dd2a80c, 0x4b5131925dd2a80c])),
    ("mp-two-payloads", (3, [0x0b0f58393cbbefbb, 0xd89a8adbdcb9045e, 0x2a964eb051d8b1c7, 0x93272f207b526bb4, 0xc3f007299e9a3c37, 0xe9a8bf21745b0003, 0x0b0f58393cbbefbb, 0x0b0f58393cbbefbb])),
    ("roach-motel", (3, [0xb371c6f6e7e81e9a, 0xead71300adb91c51, 0x6143f6d097cd37fc, 0xc98f0b3eafeb3a3d, 0xedd06a2906c34c95, 0xa7ef82662bc9c6e1, 0xb371c6f6e7e81e9a, 0xb371c6f6e7e81e9a])),
];

/// FNV-1a over the lines, each ended by a newline.
fn digest(lines: &[String]) -> u64 {
    lines
        .iter()
        .flat_map(|l| l.bytes().chain([b'\n']))
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn two_program_answers_match_the_recorded_answers() {
    let sc = Analysis::new();
    let mut computed = Vec::new();
    for litmus in corpus() {
        let program = litmus.parse().program;
        if program.threads().iter().flatten().count() > 14 {
            continue;
        }
        let rewrites = all_rewrites(&program);
        let mut lines: [Vec<String>; 8] = Default::default();
        for rw in &rewrites {
            let t = &rw.result;
            lines[0].push(format!("{rw}: {}", drf_guarantee(t, &program, &sc)));
            lines[1].push(format!("{rw}: {}", behaviour_refinement(t, &program, &sc)));
            lines[2].push(format!("{rw}: {}", sc_only_accepts(t, &program, &sc)));
            for (i, model) in MemoryModelKind::ALL.into_iter().enumerate() {
                let c = classify_transformation_under(t, &program, &sc.clone().model(model));
                lines[3 + i].push(format!("{rw}: {c}"));
            }
            for (i, model) in [MemoryModelKind::Tso, MemoryModelKind::Pso]
                .into_iter()
                .enumerate()
            {
                let g = drf_guarantee(t, &program, &sc.clone().model(model));
                lines[6 + i].push(format!("{rw}: {g}"));
            }
        }
        computed.push((litmus.name, (rewrites.len(), lines.map(|l| digest(&l)))));
    }
    let table: String = computed
        .iter()
        .map(|(name, (n, d))| {
            let d: Vec<String> = d.iter().map(|h| format!("{h:#018x}")).collect();
            format!("    ({name:?}, ({n}, [{}])),\n", d.join(", "))
        })
        .collect();
    assert_eq!(
        computed.len(),
        RECORDED_ANSWERS.len(),
        "computed answers:\n{table}"
    );
    for ((name, got), (recorded_name, recorded)) in computed.iter().zip(RECORDED_ANSWERS) {
        assert_eq!(name, recorded_name);
        assert_eq!(got, recorded, "{name}; computed answers:\n{table}");
    }
}

/// Under a state cap, a guarantee check's phases share one budget in a
/// fixed order. Under tso/pso each side runs its SC race search first,
/// so the transformed program's race search spends budget before its
/// behaviour phase, even where that phase then finds a new behaviour,
/// and a race free original's behaviours cost the SC search. Fig. 3's
/// read introduction (a ⇒ c can print two zeros) pins that order: a full
/// check visits exactly those four phases' states, and the verdict at
/// each cap below is the one this order gives. A buffered-behaviours-first
/// order visits 103 states and answers `inconclusive` at caps 72 and 73,
/// so the pins tell the two orders apart.
#[test]
fn capped_guarantee_spends_the_budget_race_phase_first() {
    let find = |name: &str| {
        let litmus = corpus().into_iter().find(|l| l.name == name);
        litmus.expect(name).parse().program
    };
    let (original, transformed) = (find("fig3-a"), find("fig3-c"));
    let new_behaviour = "VIOLATION: new behaviour [Value(0), Value(0)]";
    for model in [MemoryModelKind::Tso, MemoryModelKind::Pso] {
        let analysis = Analysis::new().model(model);
        let full = analysis.guarantee(&transformed, &original);
        assert_eq!(full.output.to_string(), new_behaviour, "{model}");
        assert!(full.completeness.is_complete(), "{model}");
        let phases = analysis.races(&original).states_explored
            + Analysis::new().behaviours(&original).states_explored
            + analysis.races(&transformed).states_explored
            + analysis.behaviours(&transformed).states_explored;
        assert_eq!(full.states_explored, phases, "{model}: states explored");
        assert_eq!(full.states_explored, 101, "{model}: states explored");
        for (cap, verdict, complete) in [
            (71, "inconclusive", false),
            (72, new_behaviour, false),
            (99, new_behaviour, false),
            (100, new_behaviour, true),
        ] {
            let capped = analysis
                .clone()
                .max_states(cap)
                .guarantee(&transformed, &original);
            let what = format!("{model} --max-states {cap}");
            assert_eq!(capped.output.to_string(), verdict, "{what}");
            assert_eq!(capped.completeness.is_complete(), complete, "{what}");
        }
    }
}
