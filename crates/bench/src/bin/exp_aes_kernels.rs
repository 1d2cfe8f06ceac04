//! AES kernel comparison: scalar table-driven vs batched bitsliced.
//!
//! Three views of the two software AES backends:
//!
//! * **Host throughput** — MiB/s over 4 KiB pages (each page its own
//!   CBC/XTS/CTR stream, as in the pager) for {CBC-encrypt,
//!   CBC-decrypt, XTS-encrypt, XTS-decrypt, CTR} × {table, bitsliced}.
//!   CBC decryption, XTS (both directions), and CTR are data-parallel,
//!   so the bitsliced backend runs them 16 blocks per kernel call; CBC
//!   encryption is serially chained and shows the bitsliced backend at
//!   its worst (one block occupying a 16-lane kernel). The XTS-encrypt
//!   over CBC-encrypt ratio is the cliff the per-page XTS mode
//!   removes from the lock path. The `cmac` rows MAC the same pages
//!   under the AES-128 page-MAC key the integrity plane derives: `table`
//!   runs one serial CBC-MAC chain per page on the scalar backend,
//!   `bitsliced-batched` runs 16 page chains per bitsliced kernel call
//!   through `Cmac::mac_extents`.
//! * **Table 4 accounting** — the on-SoC state arena of the tracked
//!   variant of each backend, by sensitivity class. The table-driven
//!   variant must access-protect its 2.5 KiB of lookup tables; the
//!   bitsliced variant computes SubBytes as a boolean circuit and has
//!   *zero* access-protected bytes.
//! * **Simulated on-SoC engine time** — per-4 KiB-page simulated cost of
//!   the generic (DRAM-state) engine and AES On SoC with each backend,
//!   confirming the backend swap does not perturb the calibrated model.
//!
//! Results print as tables and land in `BENCH_aes_kernels.json`. With
//! `--enforce`, the process exits non-zero unless (a) bitsliced
//! CBC-decrypt at least matches the scalar baseline — the CI regression
//! gate for the batch kernels (a `target-cpu=native` run shows ~3.5×;
//! the gate only demands parity so feature-poor CI hosts do not flap) —
//! and (b) bitsliced XTS page-encrypt runs at least 8× bitsliced
//! CBC-encrypt, the tentpole gate proving the lane-filling mode removed
//! the encrypt cliff (a native run shows ~11×) — and (c) batched
//! bitsliced CMAC runs at least 2× the scalar per-page CMAC, the gate
//! for the bulk MAC paths (integrity tags, journal commit tags, dm-crypt
//! sector tags) riding the lanes.

use std::time::Instant;

use sentry_bench::print_table;
use sentry_core::aes_onsoc::{build_engine_with_backend, OnSocCipherBackend};
use sentry_core::config::OnSocBackend;
use sentry_core::onsoc::OnSocStore;
use sentry_crypto::modes::{cbc_decrypt, cbc_encrypt, ctr_xor, xts_decrypt, xts_encrypt};
use sentry_crypto::{Aes, AesStateLayout, BitslicedAes, Cmac, KeySize, Sensitivity};
use sentry_kernel::crypto_api::{CipherEngine, GenericAesEngine};
use sentry_soc::Soc;

const PAGE: usize = 4096;
const PAGES: usize = 64;
const REPS: usize = 11;
const KEY: [u8; 32] = [0x6Bu8; 32];

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    CbcEnc,
    CbcDec,
    XtsEnc,
    XtsDec,
    Ctr,
    Cmac,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::CbcEnc => "cbc_enc",
            Mode::CbcDec => "cbc_dec",
            Mode::XtsEnc => "xts_enc",
            Mode::XtsDec => "xts_dec",
            Mode::Ctr => "ctr",
            Mode::Cmac => "cmac",
        }
    }
    fn all() -> [Mode; 6] {
        [
            Mode::CbcEnc,
            Mode::CbcDec,
            Mode::XtsEnc,
            Mode::XtsDec,
            Mode::Ctr,
            Mode::Cmac,
        ]
    }
    /// The backend label of a host row: the bitsliced CMAC row is the
    /// lane-batched path, not a bitsliced single chain.
    fn backend(self, bitsliced: bool) -> &'static str {
        match (self, bitsliced) {
            (_, false) => "table",
            (Mode::Cmac, true) => "bitsliced-batched",
            (_, true) => "bitsliced",
        }
    }
}

/// The contexts the host sweep runs: the AES-256 page-cipher key in
/// both layouts, and a CMAC under an AES-128 key like the derived
/// page-MAC keys.
struct Kernels {
    aes: Aes,
    bits: BitslicedAes,
    cmac: Cmac,
}

/// The per-page IVs the CMAC rows prefix each page with.
fn cmac_ivs() -> Vec<[u8; 16]> {
    (0..PAGES).map(|i| [i as u8; 16]).collect()
}

fn run_pages(k: &Kernels, bitsliced: bool, mode: Mode, buf: &mut [u8]) {
    let Kernels { aes, bits, cmac } = k;
    if mode == Mode::Cmac {
        let ivs = cmac_ivs();
        let tags = if bitsliced {
            cmac.mac_extents(&ivs, buf)
        } else {
            ivs.iter()
                .zip(buf.chunks_exact(PAGE))
                .map(|(iv, page)| cmac.mac_parts(&[iv, page]))
                .collect()
        };
        // Chain the tags into the buffer so no rep can be elided.
        buf[..16].copy_from_slice(&tags[PAGES - 1]);
        return;
    }
    for (i, page) in buf.chunks_exact_mut(PAGE).enumerate() {
        let iv = [i as u8; 16];
        match (mode, bitsliced) {
            // CBC encryption is serially chained; both backends go
            // through the same serial driver, so this row measures the
            // single-block cost of each backend.
            (Mode::CbcEnc, false) => cbc_encrypt(aes, &iv, page),
            (Mode::CbcEnc, true) => cbc_encrypt(bits, &iv, page),
            (Mode::CbcDec, false) => cbc_decrypt(aes, &iv, page),
            (Mode::CbcDec, true) => cbc_decrypt(bits, &iv, page),
            // XTS fills the lanes in both directions: the tweak chain is
            // computed up front, every block is independent after it.
            (Mode::XtsEnc, false) => xts_encrypt(aes, aes, &iv, page),
            (Mode::XtsEnc, true) => xts_encrypt(bits, bits, &iv, page),
            (Mode::XtsDec, false) => xts_decrypt(aes, aes, &iv, page),
            (Mode::XtsDec, true) => xts_decrypt(bits, bits, &iv, page),
            (Mode::Ctr, false) => ctr_xor(aes, &[i as u8; 8], 0, page),
            (Mode::Ctr, true) => ctr_xor(bits, &[i as u8; 8], 0, page),
            (Mode::Cmac, _) => unreachable!("MACed above"),
        }
    }
}

/// MiB/s of one backend × mode over the page set, taken from the
/// fastest repetition. Timing noise on a shared builder is one-sided —
/// scheduler steal and frequency dips only ever *slow* a rep, never
/// speed one up — so the minimum elapsed time is the most stable
/// estimate of the kernel's actual cost (a median still flaps when
/// more than half the reps land inside a noisy window, which the
/// enforce ratios cannot tolerate).
fn host_mib_s(k: &Kernels, bitsliced: bool, mode: Mode) -> f64 {
    let mut buf: Vec<u8> = (0..PAGES * PAGE).map(|i| (i * 31) as u8).collect();
    let mut best = u64::MAX;
    for rep in 0..=REPS {
        let t0 = Instant::now();
        run_pages(k, bitsliced, mode, &mut buf);
        let elapsed = t0.elapsed().as_nanos() as u64;
        if rep > 0 {
            // First pass is warm-up (page faults, cache fill).
            best = best.min(elapsed);
        }
    }
    (PAGES * PAGE) as f64 / (1 << 20) as f64 / (best as f64 * 1e-9)
}

struct Accounting {
    variant: &'static str,
    secret: usize,
    access_protected: usize,
    public: usize,
    arena: usize,
}

fn accounting(key_size: KeySize) -> [Accounting; 2] {
    let mk = |variant, layout: &AesStateLayout| Accounting {
        variant,
        secret: layout.total_for(Sensitivity::Secret),
        access_protected: layout.total_for(Sensitivity::AccessProtected),
        public: layout.total_for(Sensitivity::Public),
        arena: layout.total_bytes(),
    };
    [
        mk("table_driven", &AesStateLayout::for_key_size(key_size)),
        mk("bitsliced_table_free", &AesStateLayout::bitsliced(key_size)),
    ]
}

/// Simulated ns to CBC-encrypt one 4 KiB page through a kernel engine.
fn sim_page_ns(engine: &mut dyn CipherEngine, soc: &mut Soc) -> u64 {
    let mut page = vec![0u8; PAGE];
    let t0 = soc.clock.now_ns();
    engine
        .encrypt(soc, &[0u8; 16], &mut page)
        .expect("keyed engine encrypts");
    soc.clock.now_ns() - t0
}

fn main() {
    let enforce = std::env::args().any(|a| a == "--enforce");

    let aes = Aes::new(&KEY).expect("valid key length");
    let kernels = Kernels {
        bits: BitslicedAes::from_schedule(aes.schedule()),
        cmac: Cmac::new(Aes::new(&KEY[..16]).expect("valid key length")),
        aes,
    };

    // Host throughput sweep.
    let mut host: Vec<(&'static str, &'static str, f64)> = Vec::new();
    for mode in Mode::all() {
        for bitsliced in [false, true] {
            host.push((
                mode.backend(bitsliced),
                mode.name(),
                host_mib_s(&kernels, bitsliced, mode),
            ));
        }
    }
    let thr = |backend: &str, mode: Mode| {
        host.iter()
            .find(|(b, m, _)| *b == backend && *m == mode.name())
            .map(|&(_, _, v)| v)
            .expect("swept")
    };
    let rows: Vec<Vec<String>> = Mode::all()
        .iter()
        .map(|&mode| {
            let t = thr("table", mode);
            let b = thr(mode.backend(true), mode);
            vec![
                mode.name().to_string(),
                format!("{t:.1}"),
                format!("{b:.1}"),
                format!("{:.2}x", b / t),
            ]
        })
        .collect();
    print_table(
        "Host AES kernels over 4 KiB pages (MiB/s, fastest rep)",
        &["Mode", "Table", "Bitsliced", "Bitsliced/Table"],
        &rows,
    );

    // Table 4 accounting for the tracked variants.
    let key_size = KeySize::Aes256;
    let acct = accounting(key_size);
    let acct_rows: Vec<Vec<String>> = acct
        .iter()
        .map(|a| {
            vec![
                a.variant.to_string(),
                a.secret.to_string(),
                a.access_protected.to_string(),
                a.public.to_string(),
                a.arena.to_string(),
            ]
        })
        .collect();
    print_table(
        "On-SoC state arena by sensitivity (AES-256, bytes)",
        &["Variant", "Secret", "Access-protected", "Public", "Arena"],
        &acct_rows,
    );

    // Simulated engine cost per page, DRAM-state vs on-SoC per backend.
    let mut soc = Soc::tegra3_small();
    let mut generic = GenericAesEngine::new(0);
    generic.set_key(&mut soc, &KEY).expect("generic keys");
    let mut store = OnSocStore::new(OnSocBackend::Iram, &mut soc).expect("iram store");
    let mut onsoc_table =
        build_engine_with_backend(&mut store, &mut soc, &KEY, OnSocCipherBackend::TableDriven)
            .expect("onsoc table engine");
    let mut onsoc_bits = build_engine_with_backend(
        &mut store,
        &mut soc,
        &KEY,
        OnSocCipherBackend::BitslicedTableFree,
    )
    .expect("onsoc bitsliced engine");
    let sim = [
        ("generic_dram", sim_page_ns(&mut generic, &mut soc)),
        ("onsoc_table", sim_page_ns(&mut onsoc_table, &mut soc)),
        ("onsoc_bitsliced", sim_page_ns(&mut onsoc_bits, &mut soc)),
    ];
    let sim_rows: Vec<Vec<String>> = sim
        .iter()
        .map(|&(name, ns)| vec![name.to_string(), format!("{:.3}", ns as f64 * 1e-3)])
        .collect();
    print_table(
        "Simulated engine cost per 4 KiB page (µs)",
        &["Engine", "Page µs"],
        &sim_rows,
    );

    // JSON.
    let host_json: Vec<String> = host
        .iter()
        .map(|(b, m, v)| {
            format!("    {{\"backend\": \"{b}\", \"mode\": \"{m}\", \"mib_s\": {v:.1}}}")
        })
        .collect();
    let acct_json: Vec<String> = acct
        .iter()
        .map(|a| {
            format!(
                "    {{\"variant\": \"{}\", \"secret\": {}, \"access_protected\": {}, \
                 \"public\": {}, \"arena\": {}}}",
                a.variant, a.secret, a.access_protected, a.public, a.arena
            )
        })
        .collect();
    let sim_json: Vec<String> = sim
        .iter()
        .map(|&(name, ns)| format!("    {{\"engine\": \"{name}\", \"page_ns\": {ns}}}"))
        .collect();
    let dec_ratio = thr("bitsliced", Mode::CbcDec) / thr("table", Mode::CbcDec);
    let xts_enc_ratio = thr("bitsliced", Mode::XtsEnc) / thr("bitsliced", Mode::CbcEnc);
    let cmac_ratio = thr("bitsliced-batched", Mode::Cmac) / thr("table", Mode::Cmac);
    let json = format!(
        "{{\n  \"experiment\": \"aes_kernels\",\n  \"page_bytes\": {PAGE},\n  \
         \"pages\": {PAGES},\n  \"reps\": {REPS},\n  \
         \"cbc_dec_bitsliced_over_table\": {dec_ratio:.2},\n  \
         \"xts_enc_over_cbc_enc\": {xts_enc_ratio:.2},\n  \
         \"cmac_batched_over_table\": {cmac_ratio:.2},\n  \
         \"host\": [\n{}\n  ],\n  \"table4\": [\n{}\n  ],\n  \"sim\": [\n{}\n  ]\n}}\n",
        host_json.join(",\n"),
        acct_json.join(",\n"),
        sim_json.join(",\n"),
    );
    std::fs::write("BENCH_aes_kernels.json", &json).expect("write BENCH_aes_kernels.json");
    println!("\nwrote BENCH_aes_kernels.json");

    if enforce {
        assert!(
            acct[1].access_protected == 0,
            "bitsliced variant must have zero access-protected state"
        );
        if dec_ratio < 1.0 {
            eprintln!(
                "FAIL: bitsliced CBC-decrypt regressed below the scalar-table \
                 baseline ({dec_ratio:.2}x)"
            );
            std::process::exit(1);
        }
        println!("enforce: bitsliced CBC-decrypt at {dec_ratio:.2}x of scalar — ok");
        // The tentpole gate: page encryption through the lane-filling
        // XTS mode must run at least 8x the serially chained CBC
        // encryption on the same bitsliced backend (a native run shows
        // ~12x; 8x leaves headroom for noisy CI hosts).
        if xts_enc_ratio < 8.0 {
            eprintln!(
                "FAIL: bitsliced XTS page-encrypt at only {xts_enc_ratio:.2}x of \
                 bitsliced CBC-encrypt (gate: >= 8x)"
            );
            std::process::exit(1);
        }
        println!("enforce: bitsliced XTS-encrypt at {xts_enc_ratio:.2}x of CBC-encrypt — ok");
        // The bulk-MAC gate: 16 page chains per bitsliced call must run
        // at least 2x the scalar one-chain-per-page CMAC (a native run
        // shows ~5x).
        if cmac_ratio < 2.0 {
            eprintln!(
                "FAIL: batched bitsliced CMAC at only {cmac_ratio:.2}x of the \
                 scalar per-page CMAC (gate: >= 2x)"
            );
            std::process::exit(1);
        }
        println!("enforce: batched bitsliced CMAC at {cmac_ratio:.2}x of scalar — ok");
    }
}
