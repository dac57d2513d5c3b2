//! CRC32 (IEEE 802.3 polynomial, reflected) — the checksum framing every
//! WAL record and chunk file, with no external dependency.
//!
//! The hot loop uses slicing-by-8: eight lookup tables consume eight
//! input bytes per iteration, breaking the per-byte load-use dependency
//! chain of the classic table walk. Same polynomial, same check values,
//! roughly 3-4x the throughput — this sits on the ingest path (WAL
//! framing) and the flush path (chunk checksums), so it is the single
//! hottest routine in the store.

/// Lazily built slicing-by-8 tables for the reflected polynomial
/// `0xEDB88320`. `tables()[0]` is the classic byte-at-a-time table;
/// `tables()[k][b]` advances a CRC whose low byte is `b` by `k` more
/// zero bytes.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        for i in 0..256usize {
            let mut c = t[0][i];
            for k in 1..8 {
                c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    })
}

/// CRC32 of `data` (standard init/final XOR with `0xFFFFFFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let t = tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"the quick brown fox".to_vec();
        let clean = crc32(&data);
        data[7] ^= 0x20;
        assert_ne!(crc32(&data), clean);
    }

    #[test]
    fn sliced_path_matches_byte_at_a_time_at_every_alignment() {
        // Cover lengths around the 8-byte slicing boundary so both the
        // wide loop and the remainder tail are exercised.
        let data: Vec<u8> = (0u32..64).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..data.len() {
            let t = tables();
            let mut c = 0xFFFF_FFFFu32;
            for &b in &data[..len] {
                c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            assert_eq!(crc32(&data[..len]), c ^ 0xFFFF_FFFF, "len {len}");
        }
    }
}
