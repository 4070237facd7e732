//! CRC-32 (IEEE 802.3 polynomial): carry-less multiplication where the CPU
//! has it, slicing-by-16 everywhere else.
//!
//! Every chunk payload and the file footer carry a CRC so that any flipped
//! byte is detected as a typed [`StorageError`](crate::StorageError) instead
//! of being decoded into silently wrong data (or a panic). The vendored
//! dependency set has no checksum crate, so the kernels live here.
//!
//! Every byte a table scan or a spill round trip reads or writes passes
//! through this loop once, so its speed is the scan's. Two kernels compute
//! the same function:
//!
//! * **Carry-less multiplication** (x86-64 with PCLMULQDQ and SSE4.1,
//!   detected at run time): the folding method of Intel's "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction", as
//!   zlib and crc32fast use it. Four 128-bit lanes each fold the next 16
//!   bytes in per 64-byte step (two carry-less multiplies by `x^512` and
//!   `x^576` mod P), the lanes fold down to one, and a Barrett reduction
//!   takes the last 64 bits to the 32-bit remainder. ≈ 0.06–0.08 ns/byte
//!   on 1 MiB (2-core x86-64 Xeon, release build).
//! * **Slicing-by-16**, the portable kernel, which also takes inputs
//!   shorter than one 64-byte step and the sub-16-byte tail of longer ones:
//!   16 input bytes per step through sixteen 256-entry tables (16 KiB, built
//!   at compile time) whose lookups do not wait on each other. ≈ 0.55–0.90
//!   ns/byte on the same host; the byte-at-a-time walk it replaced was
//!   2.8–2.9.
//!
//! The polynomial, the initial value and the final XOR are those of the
//! byte-at-a-time definition, so the checksums — and the files that store
//! them — are bit-identical whichever kernel ran; the tests hold the two
//! kernels and the bit-by-bit definition to each other.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = tables();

const fn tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` (IEEE, reflected, init and final XOR `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let (crc, tail) = fold_blocks(0xFFFF_FFFF, bytes).unwrap_or((0xFFFF_FFFF, bytes));
    slicing(crc, tail) ^ 0xFFFF_FFFF
}

/// The carry-less kernel over the whole 16-byte blocks of `bytes`, from the
/// running (un-inverted) CRC `crc`: the new running CRC and the tail it
/// left. `None` when this CPU lacks the instructions or `bytes` is shorter
/// than one fold step.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn fold_blocks(crc: u32, bytes: &[u8]) -> Option<(u32, &[u8])> {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN && clmul::detected() {
        #[allow(unsafe_code)]
        // SAFETY: `fold` is compiled for PCLMULQDQ and SSE4.1, and
        // `detected` has just found both on this CPU.
        let folded = unsafe { clmul::fold(crc, bytes) };
        return Some(folded);
    }
    None
}

/// Slicing-by-16 over `bytes` from the running (un-inverted) CRC `crc`.
fn slicing(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let (blocks, tail) = bytes.as_chunks::<16>();
    for b in blocks {
        // The running CRC folds into the first four bytes; byte `j` of the
        // block then has 15 - j bytes after it, hence table 15 - j.
        let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The carry-less multiplication kernel. The constants are the folding
/// distances of the reflected polynomial, `x^d mod P` bit-reversed and
/// shifted left once (the reflected product comes out one bit short).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// `x^(4·128+32)` and `x^(4·128-32)` mod P: one 64-byte step of the
    /// four lanes.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// `x^(128+32)` and `x^(128-32)` mod P: one 16-byte step of one lane.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// `x^64` mod P: the 96-to-64-bit step before the Barrett reduction.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial P′ and the Barrett constant μ = ⌊x^64 / P⌋, reflected.
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// The shortest input `fold` takes: one step of the four lanes.
    pub(super) const MIN_LEN: usize = 64;

    /// Whether this CPU has the instructions `fold` is compiled for.
    pub(super) fn detected() -> bool {
        std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1")
    }

    /// One 16-byte block as a 128-bit lane, little-endian.
    #[target_feature(enable = "sse2")]
    fn lane(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as u64 as i64, v as u64 as i64)
    }

    /// `acc · k` folded onto `next`: the low half of `acc` times the low
    /// constant, its high half times the high one.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_onto(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Fold the whole 16-byte blocks of `bytes` (at least [`MIN_LEN`]
    /// long) into the running CRC `crc`. Returns the new running CRC and
    /// the sub-16-byte tail left for the table kernel.
    ///
    /// # Safety
    ///
    /// The instructions this is compiled for must exist on the running
    /// CPU: call it only after [`detected`] returned `true`. It reads no
    /// memory but `bytes`, through safe slices.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (head, rest) = blocks.split_at(4.min(blocks.len()));
        let [b0, b1, b2, b3] = head else {
            return (crc, bytes);
        };
        let mut x0 = _mm_xor_si128(lane(b0), _mm_cvtsi32_si128(crc as i32));
        let mut x1 = lane(b1);
        let mut x2 = lane(b2);
        let mut x3 = lane(b3);

        let k1k2 = _mm_set_epi64x(K2, K1);
        let (steps, singles) = rest.as_chunks::<4>();
        for [c0, c1, c2, c3] in steps {
            x0 = fold_onto(x0, lane(c0), k1k2);
            x1 = fold_onto(x1, lane(c1), k1k2);
            x2 = fold_onto(x2, lane(c2), k1k2);
            x3 = fold_onto(x3, lane(c3), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_onto(x0, x1, k3k4);
        x = fold_onto(x, x2, k3k4);
        x = fold_onto(x, x3, k3k4);
        for block in singles {
            x = fold_onto(x, lane(block), k3k4);
        }

        // 128 → 96 → 64 bits, then the Barrett reduction to 32.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        (crc, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, one bit at a time: the reference both kernels must
    /// agree with.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// The portable kernel alone, whatever the CPU.
    fn table_crc(bytes: &[u8]) -> u32 {
        slicing(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    /// The carry-less kernel plus the table tail, when this CPU has it.
    fn hardware_crc(bytes: &[u8]) -> Option<u32> {
        fold_blocks(0xFFFF_FFFF, bytes).map(|(crc, tail)| slicing(crc, tail) ^ 0xFFFF_FFFF)
    }

    /// A fixed pseudo-random buffer (xorshift64*).
    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE, through the dispatch.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_matches_the_bitwise_definition_at_every_length_and_alignment() {
        // Every start offset 0..16 and every length 0..=1,200: whole
        // 16-byte blocks, tails of every size, and slices that start
        // mid-word — through the table kernel alone and through the
        // dispatch, which takes the carry-less kernel from 64 bytes on
        // where the CPU has it.
        let buf = noise(16 + 1200);
        for start in 0..16 {
            for len in 0..=1200 {
                let slice = &buf[start..start + len];
                let expected = bitwise(slice);
                assert_eq!(
                    table_crc(slice),
                    expected,
                    "slicing, start {start} len {len}"
                );
                assert_eq!(crc32(slice), expected, "dispatch, start {start} len {len}");
            }
        }
    }

    #[test]
    fn the_carry_less_kernel_matches_the_bitwise_definition_at_every_length_and_offset() {
        // Lengths from one fold step up: single-block remainders after the
        // four lanes, and table tails of every size. On a CPU without the
        // instructions there is nothing to compare.
        let buf = noise(16 + 1200);
        if hardware_crc(&buf).is_none() {
            return;
        }
        for start in 0..16 {
            for len in 0..=1200 {
                let slice = &buf[start..start + len];
                let expected = (len >= 64).then(|| bitwise(slice));
                assert_eq!(hardware_crc(slice), expected, "start {start} len {len}");
            }
        }
    }

    #[test]
    fn every_kernel_agrees_on_a_mebibyte() {
        let buf = noise(1 << 20);
        let expected = bitwise(&buf);
        assert_eq!(table_crc(&buf), expected);
        assert_eq!(crc32(&buf), expected);
        if let Some(crc) = hardware_crc(&buf) {
            assert_eq!(crc, expected);
        }
    }

    #[test]
    fn any_single_bit_flip_changes_the_checksum() {
        // Long enough that the dispatch takes the carry-less kernel where
        // the CPU has it, with a tail for the table kernel.
        let data: Vec<u8> = b"the quick brown fox jumps over the lazy dog"
            .iter()
            .cycle()
            .take(150)
            .copied()
            .collect();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), clean, "flip at byte {byte} bit {bit}");
            }
        }
    }
}
