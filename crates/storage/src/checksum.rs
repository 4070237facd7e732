//! CRC-32 (IEEE 802.3 polynomial), slicing-by-16.
//!
//! Every chunk payload and the file footer carry a CRC so that any flipped
//! byte is detected as a typed [`StorageError`](crate::StorageError) instead
//! of being decoded into silently wrong data (or a panic). The vendored
//! dependency set has no checksum crate, so the kernel lives here.
//!
//! Every byte a table scan or a spill round trip reads or writes passes
//! through this loop once, so its speed is the scan's: the classic
//! byte-at-a-time table walk, at ≈ 2.6–2.9 ns/byte, was ≈ 83 % of a full
//! scan of the benchmark's 1.35 MB `supplies` file. Slicing-by-16 folds 16
//! input bytes per step through sixteen 256-entry tables (16 KiB, built at
//! compile time) whose lookups do not wait on each other, where the byte
//! walk's each wait on the previous one: 0.55–0.56 ns/byte against
//! 2.82–2.92 for the byte walk over a 1.35 MB buffer (2-core x86-64 Xeon,
//! release build); slicing-by-8 measured 0.65–0.73. The polynomial, the
//! initial value and the final XOR are unchanged, so the checksums — and the
//! files that store them — are bit-identical to the byte-at-a-time form.

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
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
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
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, one bit at a time: the reference the tables and the
    /// slicing must agree with.
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

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_matches_the_bitwise_definition_at_every_length_and_alignment() {
        // A fixed pseudo-random buffer (xorshift64*), long enough for every
        // start offset 0..16 and every length 0..=80: whole 16-byte blocks,
        // tails of every size, and slices that start mid-word.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..96)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect();
        for start in 0..16 {
            for len in 0..=80 {
                let slice = &buf[start..start + len];
                assert_eq!(crc32(slice), bitwise(slice), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn any_single_bit_flip_changes_the_checksum() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
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
