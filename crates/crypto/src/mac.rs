//! CMAC (NIST SP 800-38B) over AES, scalar and lane-batched.
//!
//! The integrity plane of the Sentry reproduction authenticates encrypted
//! DRAM pages with a per-page MAC. Reusing AES as the MAC primitive means
//! no new cipher state has to live on-SoC: the CMAC subkeys derive from
//! one block encryption and the running CBC chain fits in registers, so
//! the MAC inherits the same leakage profile as the page cipher itself.
//!
//! The implementation is a straightforward transcription of SP 800-38B:
//!
//! * subkeys `K1 = dbl(E_K(0^128))`, `K2 = dbl(K1)` where `dbl` is
//!   doubling in GF(2^128) with the x^128 + x^7 + x^2 + x + 1 modulus;
//! * complete final block → XOR with `K1`; partial/empty final block →
//!   pad with `10…0` and XOR with `K2`;
//! * the tag is the final CBC state, optionally truncated (the on-SoC
//!   tag store keeps 64-bit tags to double its page capacity, which
//!   SP 800-38B §5.5 explicitly permits).
//!
//! One CMAC is a serial CBC chain, so a single message runs on the
//! scalar T-table cipher. Bulk callers MAC many equal-length extents at
//! once ([`Cmac::mac_extents`]): their chains are independent, so at
//! each block position up to [`PAR_BLOCKS`] chains advance through one
//! bitsliced kernel call — the same lane-filling the XTS page-encrypt
//! path uses. Both paths produce identical tags.
//!
//! Verified against the NIST AES-128 CMAC examples.

use crate::bitslice::{BitslicedAes, PAR_BLOCKS};
use crate::block::{Aes, Block};
use crate::BLOCK_SIZE;

/// Lane groups with fewer chains than this run on the scalar T-table
/// chain instead of the bitsliced kernel.
///
/// One bitsliced call costs the same whether it carries 1 or 16 chains.
/// Measured with `target-cpu=native` on a 2-vCPU AVX-512 Xeon (KVM),
/// AES-128: one 16-lane call takes ~0.42 µs and one scalar block
/// ~0.125 µs, so a call is worth ~3.4 scalar blocks. Three chains on
/// the lanes would pay that for 3 blocks of work; at 4 chains the lanes
/// MAC 4 KiB pages ~15% faster than 4 scalar chains, and 512-byte
/// sectors cross over at the same width. Full groups run ~5× the
/// scalar chain (`exp_aes_kernels`, `cmac` rows).
pub const LANE_CROSSOVER: usize = 4;

/// Double a 128-bit value in GF(2^128) (the `dbl` of SP 800-38B §6.1).
fn dbl(block: &Block) -> Block {
    let mut out = [0u8; BLOCK_SIZE];
    let mut carry = 0u8;
    for i in (0..BLOCK_SIZE).rev() {
        let b = block[i];
        out[i] = (b << 1) | carry;
        carry = b >> 7;
    }
    if carry != 0 {
        out[BLOCK_SIZE - 1] ^= 0x87;
    }
    out
}

/// `dst ^= src` for one whole block, as a single 128-bit XOR.
fn xor_block(dst: &mut Block, src: &[u8]) {
    let src: &Block = src.try_into().expect("a whole block");
    *dst = (u128::from_ne_bytes(*dst) ^ u128::from_ne_bytes(*src)).to_ne_bytes();
}

/// The first 8 bytes of a tag: the 64-bit truncation SP 800-38B §5.5
/// permits (most-significant bytes first).
#[must_use]
pub fn trunc8(tag: &Block) -> [u8; 8] {
    let mut out = [0u8; 8];
    out.copy_from_slice(&tag[..8]);
    out
}

/// A CMAC context: the AES key in two layouts plus the subkeys.
///
/// The scalar T-table schedule runs single messages; the bitsliced
/// schedule is the same key pre-transposed for [`Cmac::mac_extents`].
/// Both are built once, at construction, so callers that hold a derived
/// MAC key construct one `Cmac` per key and reuse it for every page.
#[derive(Clone)]
pub struct Cmac {
    cipher: Aes,
    lanes: BitslicedAes,
    k1: Block,
    k2: Block,
}

impl core::fmt::Debug for Cmac {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.debug_struct("Cmac")
            .field("key_size", &self.cipher.key_size())
            .finish_non_exhaustive()
    }
}

impl Cmac {
    /// Build a CMAC context, deriving the two subkeys from `cipher` and
    /// bitslicing its schedule for the batched path.
    #[must_use]
    pub fn new(cipher: Aes) -> Self {
        let mut l = [0u8; BLOCK_SIZE];
        cipher.encrypt_block(&mut l);
        let k1 = dbl(&l);
        let k2 = dbl(&k1);
        let lanes = BitslicedAes::from_schedule(cipher.schedule());
        Cmac {
            cipher,
            lanes,
            k1,
            k2,
        }
    }

    /// The first subkey (`K1`), exposed for known-answer tests.
    #[must_use]
    pub fn subkey1(&self) -> &Block {
        &self.k1
    }

    /// The second subkey (`K2`), exposed for known-answer tests.
    #[must_use]
    pub fn subkey2(&self) -> &Block {
        &self.k2
    }

    /// The final block of a message whose last 0..=16 bytes are `tail`,
    /// masked per SP 800-38B step 6: a complete block is XORed with
    /// `K1`; a partial or empty one is padded `10…0` and XORed with
    /// `K2`.
    fn last_block(&self, tail: &[u8]) -> Block {
        let mut block = [0u8; BLOCK_SIZE];
        block[..tail.len()].copy_from_slice(tail);
        if tail.len() == BLOCK_SIZE {
            xor_block(&mut block, &self.k1);
        } else {
            block[tail.len()] = 0x80;
            xor_block(&mut block, &self.k2);
        }
        block
    }

    /// MAC a message supplied as a list of byte slices, treated as their
    /// concatenation. Returns the full 128-bit tag.
    ///
    /// The multi-part form lets the integrity plane prepend a 16-byte
    /// context tweak (derived from the page IV) to a ciphertext page
    /// without copying the page.
    #[must_use]
    pub fn mac_parts(&self, parts: &[&[u8]]) -> Block {
        let mut x = [0u8; BLOCK_SIZE];
        // The most recent (possibly final) block stays buffered so the
        // subkey can be applied before the last cipher call.
        let mut buf = [0u8; BLOCK_SIZE];
        let mut len = 0usize;
        for part in parts {
            let mut rest = *part;
            while !rest.is_empty() {
                if len == BLOCK_SIZE {
                    // More bytes follow: the buffered block is not last.
                    xor_block(&mut x, &buf);
                    self.cipher.encrypt_block(&mut x);
                    len = 0;
                }
                if len == 0 {
                    // Whole blocks straight from the part, except one
                    // that might be the message's last.
                    while rest.len() > BLOCK_SIZE {
                        let (block, tail) = rest.split_at(BLOCK_SIZE);
                        xor_block(&mut x, block);
                        self.cipher.encrypt_block(&mut x);
                        rest = tail;
                    }
                }
                let take = (BLOCK_SIZE - len).min(rest.len());
                buf[len..len + take].copy_from_slice(&rest[..take]);
                len += take;
                rest = &rest[take..];
            }
        }
        xor_block(&mut x, &self.last_block(&buf[..len]));
        self.cipher.encrypt_block(&mut x);
        x
    }

    /// MAC a single contiguous message. Returns the full 128-bit tag.
    #[must_use]
    pub fn mac(&self, msg: &[u8]) -> Block {
        self.mac_parts(&[msg])
    }

    /// MAC a message and truncate the tag to 64 bits (most-significant
    /// bytes first, per SP 800-38B truncation).
    #[must_use]
    pub fn mac_parts_trunc8(&self, parts: &[&[u8]]) -> [u8; 8] {
        trunc8(&self.mac_parts(parts))
    }

    /// MAC `ivs.len()` equal-length extents of `data`, extent `i`
    /// prefixed by the block `ivs[i]`: tag `i` equals
    /// `mac_parts(&[&ivs[i], extent_i])`.
    ///
    /// The chains are independent, so they advance [`PAR_BLOCKS`] at a
    /// time through the bitsliced kernel, one call per block position.
    /// A final group of fewer than [`LANE_CROSSOVER`] chains runs on the
    /// scalar chain instead.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not split into `ivs.len()` equal extents.
    #[must_use]
    pub fn mac_extents(&self, ivs: &[Block], data: &[u8]) -> Vec<Block> {
        self.mac_lanes(ivs.len(), Some(ivs), data)
    }

    /// The batch engine behind [`Cmac::mac_extents`]: message `i` is
    /// `heads[i]` (when given) followed by extent `i` of `data`.
    fn mac_lanes(&self, n: usize, heads: Option<&[Block]>, data: &[u8]) -> Vec<Block> {
        if n == 0 {
            assert!(data.is_empty(), "data without extents");
            return Vec::new();
        }
        assert!(data.len().is_multiple_of(n), "extents must be equal length");
        let unit = data.len() / n;
        let message = |i: usize| -> (&[u8], &[u8]) {
            let head = heads.map_or(&[][..], |h| &h[i][..]);
            (head, &data[i * unit..(i + 1) * unit])
        };
        let mut tags = Vec::with_capacity(n);
        for start in (0..n).step_by(PAR_BLOCKS) {
            let group: Vec<_> = (start..(start + PAR_BLOCKS).min(n)).map(message).collect();
            if group.len() < LANE_CROSSOVER {
                tags.extend(
                    group
                        .iter()
                        .map(|&(head, body)| self.mac_parts(&[head, body])),
                );
            } else {
                self.mac_group(&group, &mut tags);
            }
        }
        tags
    }

    /// Run up to [`PAR_BLOCKS`] equal-shape messages `(head, body)` —
    /// `head` empty or one block — as parallel chains on the lanes,
    /// appending their tags to `tags`.
    fn mac_group(&self, messages: &[(&[u8], &[u8])], tags: &mut Vec<Block>) {
        let head_len = messages[0].0.len();
        debug_assert!(head_len == 0 || head_len == BLOCK_SIZE);
        let len = head_len + messages[0].1.len();
        // Offset of the final (possibly partial or empty) block.
        let last = len.saturating_sub(1) / BLOCK_SIZE * BLOCK_SIZE;
        // Unused lanes chain garbage nobody reads; a full state keeps
        // every call on the packed 16-block kernel.
        let mut x = [[0u8; BLOCK_SIZE]; PAR_BLOCKS];
        if head_len > 0 && last > 0 {
            for (state, (head, _)) in x.iter_mut().zip(messages) {
                state.copy_from_slice(head);
            }
            self.lanes.encrypt_blocks(&mut x);
        }
        for at in (0..last.saturating_sub(head_len)).step_by(BLOCK_SIZE) {
            for (state, (_, body)) in x.iter_mut().zip(messages) {
                xor_block(state, &body[at..at + BLOCK_SIZE]);
            }
            self.lanes.encrypt_blocks(&mut x);
        }
        for (state, (head, body)) in x.iter_mut().zip(messages) {
            let tail = if last < head_len {
                *head
            } else {
                &body[last - head_len..]
            };
            xor_block(state, &self.last_block(tail));
        }
        self.lanes.encrypt_blocks(&mut x);
        tags.extend_from_slice(&x[..messages.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn nist_cmac() -> Cmac {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        Cmac::new(Aes::new(&key).unwrap())
    }

    /// The SP 800-38A sample plaintext the CMAC examples reuse.
    const MSG: [u8; 64] = [
        0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17,
        0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf,
        0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb, 0xc1, 0x19, 0x1a,
        0x0a, 0x52, 0xef, 0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17, 0xad, 0x2b, 0x41, 0x7b,
        0xe6, 0x6c, 0x37, 0x10,
    ];

    #[test]
    fn nist_subkeys() {
        let c = nist_cmac();
        assert_eq!(
            c.subkey1(),
            &[
                0xfb, 0xee, 0xd6, 0x18, 0x35, 0x71, 0x33, 0x66, 0x7c, 0x85, 0xe0, 0x8f, 0x72, 0x36,
                0xa8, 0xde,
            ]
        );
        assert_eq!(
            c.subkey2(),
            &[
                0xf7, 0xdd, 0xac, 0x30, 0x6a, 0xe2, 0x66, 0xcc, 0xf9, 0x0b, 0xc1, 0x1e, 0xe4, 0x6d,
                0x51, 0x3b,
            ]
        );
    }

    #[test]
    fn nist_empty_message() {
        assert_eq!(
            nist_cmac().mac(&[]),
            [
                0xbb, 0x1d, 0x69, 0x29, 0xe9, 0x59, 0x37, 0x28, 0x7f, 0xa3, 0x7d, 0x12, 0x9b, 0x75,
                0x67, 0x46,
            ]
        );
    }

    #[test]
    fn nist_one_block() {
        assert_eq!(
            nist_cmac().mac(&MSG[..16]),
            [
                0x07, 0x0a, 0x16, 0xb4, 0x6b, 0x4d, 0x41, 0x44, 0xf7, 0x9b, 0xdd, 0x9d, 0xd0, 0x4a,
                0x28, 0x7c,
            ]
        );
    }

    #[test]
    fn nist_partial_final_block() {
        assert_eq!(
            nist_cmac().mac(&MSG[..40]),
            [
                0xdf, 0xa6, 0x67, 0x47, 0xde, 0x9a, 0xe6, 0x30, 0x30, 0xca, 0x32, 0x61, 0x14, 0x97,
                0xc8, 0x27,
            ]
        );
    }

    #[test]
    fn nist_four_blocks() {
        assert_eq!(
            nist_cmac().mac(&MSG),
            [
                0x51, 0xf0, 0xbe, 0xbf, 0x7e, 0x3b, 0x9d, 0x92, 0xfc, 0x49, 0x74, 0x17, 0x79, 0x36,
                0x3c, 0xfe,
            ]
        );
    }

    #[test]
    fn parts_equal_contiguous() {
        let c = nist_cmac();
        assert_eq!(c.mac_parts(&[&MSG[..16], &MSG[16..]]), c.mac(&MSG));
        assert_eq!(c.mac_parts(&[&MSG[..7], &MSG[7..40]]), c.mac(&MSG[..40]));
        assert_eq!(c.mac_parts(&[&[], &MSG, &[]]), c.mac(&MSG));
    }

    #[test]
    fn trunc8_is_tag_prefix() {
        let c = nist_cmac();
        let full = c.mac_parts(&[&MSG]);
        assert_eq!(c.mac_parts_trunc8(&[&MSG]), full[..8]);
    }

    #[test]
    fn single_bit_flip_changes_tag() {
        let c = nist_cmac();
        let base = c.mac(&MSG);
        for byte in [0usize, 15, 16, 63] {
            for bit in 0..8u8 {
                let mut m = MSG;
                m[byte] ^= 1 << bit;
                assert_ne!(c.mac(&m), base, "flip at byte {byte} bit {bit}");
            }
        }
    }

    /// Deterministic filler: extent bytes from a seed.
    fn fill(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    fn ivs(seed: u64, n: usize) -> Vec<Block> {
        fill(seed ^ 0x5eed, n * BLOCK_SIZE)
            .chunks_exact(BLOCK_SIZE)
            .map(|c| c.try_into().unwrap())
            .collect()
    }

    /// The per-extent reference the batch path must reproduce.
    fn one_by_one(c: &Cmac, ivs: &[Block], data: &[u8]) -> Vec<Block> {
        let unit = data.len().checked_div(ivs.len()).unwrap_or(0);
        ivs.iter()
            .enumerate()
            .map(|(i, iv)| c.mac_parts(&[iv, &data[i * unit..(i + 1) * unit]]))
            .collect()
    }

    #[test]
    fn nist_examples_through_the_batch_path() {
        let c = nist_cmac();
        let head: Block = MSG[..16].try_into().unwrap();
        // Lone extent, sub-crossover tail, one full group, group + tail.
        for k in [1usize, 3, 4, 16, 17, 20, 40] {
            let tags =
                |prefix: Option<&[Block]>, body: &[u8]| c.mac_lanes(k, prefix, &body.repeat(k));
            // Example 1: the empty message (no head block at all).
            let t = tags(None, &[]);
            assert!(t.iter().all(|t| *t == c.mac(&[])), "empty, {k} lanes");
            let heads = vec![head; k];
            for len in [16usize, 40, 64] {
                let want = c.mac(&MSG[..len]);
                let got = c.mac_extents(&heads, &MSG[16..len].repeat(k));
                assert!(got.iter().all(|t| *t == want), "{len} bytes, {k} lanes");
            }
        }
        assert_eq!(
            c.mac_extents(&[head; 17], &MSG[16..].repeat(17))[16],
            [
                0x51, 0xf0, 0xbe, 0xbf, 0x7e, 0x3b, 0x9d, 0x92, 0xfc, 0x49, 0x74, 0x17, 0x79, 0x36,
                0x3c, 0xfe,
            ]
        );
    }

    #[test]
    fn every_extent_count_matches_the_scalar_chain() {
        let c = Cmac::new(Aes::new(&[0x42u8; 16]).unwrap());
        for n in 0..=40usize {
            for unit in [16usize, 48, 512] {
                let (iv, data) = (ivs(n as u64, n), fill(n as u64, n * unit));
                assert_eq!(
                    c.mac_extents(&iv, &data),
                    one_by_one(&c, &iv, &data),
                    "{n} extents of {unit} bytes"
                );
            }
        }
    }

    #[test]
    fn partial_final_blocks_match_the_scalar_chain() {
        let c = nist_cmac();
        for unit in 0..=40usize {
            let n = 5;
            let (iv, data) = (ivs(unit as u64, n), fill(unit as u64, n * unit));
            assert_eq!(c.mac_extents(&iv, &data), one_by_one(&c, &iv, &data));
        }
    }

    #[test]
    fn lanes_do_not_bleed_into_each_other() {
        let c = nist_cmac();
        let (iv, mut data) = (ivs(7, 16), fill(7, 16 * 256));
        let before = c.mac_extents(&iv, &data);
        data[5 * 256 + 100] ^= 0x04;
        let after = c.mac_extents(&iv, &data);
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            assert_eq!(b == a, i != 5, "extent {i}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

        #[test]
        fn mac_extents_equals_per_extent_mac_parts(
            key in proptest::collection::vec(any::<u8>(), 16..=16),
            n in 0usize..=40,
            unit_blocks in 1usize..=256,
            seed in any::<u64>(),
        ) {
            let c = Cmac::new(Aes::new(&key).unwrap());
            let unit = unit_blocks * BLOCK_SIZE;
            let (iv, data) = (ivs(seed, n), fill(seed, n * unit));
            prop_assert_eq!(c.mac_extents(&iv, &data), one_by_one(&c, &iv, &data));
        }
    }
}
