//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), the checksum guarding
//! every journal frame and snapshot payload.
//!
//! Implemented locally (table-driven, tables built at compile time)
//! because the workspace has no registry access; the value matches the
//! ubiquitous zlib/`crc32fast` CRC-32 so externally-produced files can
//! be cross-checked.
//!
//! Eight bytes a step ("slicing-by-8"): a recovery checksums the
//! snapshot it loads, every journal frame it reads and the snapshot it
//! writes, and one byte a step (one dependent table load per byte,
//! ≈0.4 GB/s) makes the checksum over a quarter of its wall time.

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
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

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes` (IEEE, initial value `0xFFFF_FFFF`, final XOR).
pub fn crc32(bytes: &[u8]) -> u32 {
    let at = |k: usize, byte: u32| TABLES[k][(byte & 0xFF) as usize];
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = at(7, lo)
            ^ at(6, lo >> 8)
            ^ at(5, lo >> 16)
            ^ at(4, lo >> 24)
            ^ at(3, hi)
            ^ at(2, hi >> 8)
            ^ at(1, hi >> 16)
            ^ at(0, hi >> 24);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ at(0, crc ^ b as u32);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// Every length around the eight-byte step agrees with the
    /// one-byte-a-step definition.
    #[test]
    fn matches_the_bytewise_definition_at_every_length() {
        let bytewise = |bytes: &[u8]| {
            !bytes.iter().fold(0xFFFF_FFFFu32, |crc, &b| {
                (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
            })
        };
        let data: Vec<u8> = (0..4099u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in (0..=70).chain([163, 164, 1024, 4099]) {
            for start in 0..3 {
                let bytes = &data[start..start + len.min(data.len() - start)];
                assert_eq!(crc32(bytes), bytewise(bytes), "len {len} from {start}");
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let a = crc32(b"hello, journal");
        let b = crc32(b"hello, journal\x01");
        let c = crc32(b"hello, jou\x72nal"); // 'r' unchanged → same bytes
        assert_ne!(a, b);
        assert_eq!(a, c);
    }
}
