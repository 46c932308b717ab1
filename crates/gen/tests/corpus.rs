//! Golden pin of the test corpus's inputs.
//!
//! The output goldens of every layer run the cases of
//! [`pba_gen::corpus`]. The digests below pin each case's generated ELF,
//! so a change to the generator or to a recipe fails here once, as an
//! input change, and not as an output change of every golden at once.
//!
//! A digest is FNV-1a-64 of the ELF bytes. Regenerate (only for an
//! intended input change, and then the output goldens with it) with
//! `cargo test -p pba-gen --test corpus -- --ignored --nocapture print_golden`.

use pba_gen::corpus;

/// `(list, case, seed, digest)` in [`corpus::lists`] order.
#[rustfmt::skip]
const GOLDEN: [(&str, &str, u64, u64); 55] = [
    ("small", "LLNL1", 0xb, 0x6342c3fef7c470f4),
    ("small", "LLNL1", 0x5eedba5e, 0x387ca7b2c5c512ec),
    ("small", "LLNL1", 0x1346233, 0xa01137ea0ca39f19),
    ("small", "LLNL2", 0xb, 0x18f0f346f008f760),
    ("small", "LLNL2", 0x5eedba5e, 0xf7f94984212062a9),
    ("small", "LLNL2", 0x1346233, 0xdd92994cd50e0870),
    ("small", "Camellia", 0xb, 0xa0d57910f2d88fdb),
    ("small", "Camellia", 0x5eedba5e, 0xef9438bf74ca47d4),
    ("small", "Camellia", 0x1346233, 0xe41e51ff14cb6f49),
    ("small", "TensorFlow", 0xb, 0xc55e76417ba15b94),
    ("small", "TensorFlow", 0x5eedba5e, 0x9b78318afe4488ac),
    ("small", "TensorFlow", 0x1346233, 0x91ddb3e3ef7713cb),
    ("small", "coreutils", 0xb, 0xd74ebe5fb353ea67),
    ("small", "coreutils", 0x5eedba5e, 0x35bb247d3bbdfe8e),
    ("small", "coreutils", 0x1346233, 0x5954163abd0bef85),
    ("small", "server", 0xb, 0x17577b355c7e15e3),
    ("small", "server", 0x5eedba5e, 0xc7dd8307f0eb20ad),
    ("small", "server", 0x1346233, 0x7e1badedd6a5c843),
    ("small", "skewed", 0xb, 0x9dbce1b21647bc27),
    ("small", "skewed", 0x5eedba5e, 0x118a009470a00a3a),
    ("small", "skewed", 0x1346233, 0x66e126480322a731),
    ("structure", "LLNL1", 0xb, 0x79f6f7c12bd64783),
    ("structure", "LLNL1", 0x5eedba5e, 0x6f79796ba6e9501d),
    ("structure", "LLNL2", 0xb, 0x4c0847080954dd23),
    ("structure", "LLNL2", 0x5eedba5e, 0xb63d31b281f9d77e),
    ("structure", "Camellia", 0xb, 0x14a3ad1b58a2b0d2),
    ("structure", "Camellia", 0x5eedba5e, 0xa04eed9a1fdba91d),
    ("structure", "TensorFlow", 0xb, 0xffe06ea006471523),
    ("structure", "TensorFlow", 0x5eedba5e, 0x5d14259f38291a5e),
    ("structure", "coreutils", 0xb, 0xd1c014729f7323c8),
    ("structure", "coreutils", 0x5eedba5e, 0xc71faa7d704a9b3e),
    ("structure", "server", 0xb, 0x6cbab520c8dcb381),
    ("structure", "server", 0x5eedba5e, 0x35450b4809e7ccdf),
    ("structure", "skewed", 0xb, 0x669ca03ff7a128d7),
    ("structure", "skewed", 0x5eedba5e, 0x8da38fc813949382),
    ("structure", "large-TensorFlow", 0x5eedba5e, 0xa9f8aeb800568389),
    ("structure", "large-LLNL2", 0x5eedba5e, 0x06759867294b73cf),
    ("serve", "serve", 0xb, 0xd37656600cd7704d),
    ("serve", "serve", 0x5eedba5e, 0xaf4b349d580b0e0f),
    ("serve", "serve", 0x1346233, 0x4aa6e59ec9ef5f9a),
    ("skewed_full", "skewed", 0xb, 0xedc706739f22f82b),
    ("skewed_full", "skewed", 0x5eedba5e, 0x1f74c52b73f9080d),
    ("skewed_full", "skewed", 0x1346233, 0xa17b0a6a14e29121),
    ("clone", "clone-1", 0xc10e, 0x65799bc132300cd4),
    ("clone", "clone-2", 0xc10e, 0xb3b62dc07f9b5675),
    ("clone", "clone-3", 0xc10e, 0x064af72b8a5172cf),
    ("clone", "clone-4", 0xc10e, 0x31a137df28115333),
    ("clone", "clone-1", 0xc4df, 0xcfad12e806a863b3),
    ("clone", "clone-2", 0xc4df, 0xf12ed90903d843e6),
    ("clone", "clone-3", 0xc4df, 0xf24bfe21e8959150),
    ("clone", "clone-4", 0xc4df, 0x4f03cc8e1e9e0808),
    ("clone", "clone-1", 0xc8b0, 0x663cb0a85d9c4f01),
    ("clone", "clone-2", 0xc8b0, 0x30544a2cd8b1d117),
    ("clone", "clone-3", 0xc8b0, 0x4b6e1c0cb23efc76),
    ("clone", "clone-4", 0xc8b0, 0x52a6bfb83ca1d659),
];

/// `(list, case name, seed, digest)` of every case.
fn digests() -> Vec<(&'static str, String, u64, u64)> {
    let mut rows = Vec::new();
    for (list, cases) in corpus::lists() {
        for case in cases {
            let digest = pba_elf::image::fnv1a_64(&case.elf());
            rows.push((list, case.name.clone(), case.seed(), digest));
        }
    }
    rows
}

#[test]
fn input_digests_match_the_checked_in_constants() {
    let rows = digests();
    assert_eq!(rows.len(), GOLDEN.len(), "one GOLDEN row per case");
    for ((list, name, seed, got), want) in rows.iter().zip(GOLDEN) {
        let what = format!("{list} {name} seed {seed:#x}: digest {got:#018x}");
        assert_eq!((*list, name.as_str(), *seed, *got), want, "{what}");
    }
}

#[test]
#[ignore = "prints the GOLDEN table; run at the commit whose inputs are to be pinned"]
fn print_golden() {
    for (list, name, seed, digest) in digests() {
        println!("    ({list:?}, {name:?}, {seed:#x}, {digest:#018x}),");
    }
}
