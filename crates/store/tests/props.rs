//! Property tests for the page encodings: every encoding round-trips
//! exactly (including empty columns, NaN payloads, signed zeros and
//! max-varint boundary values), and corrupted payloads always surface a
//! typed error — never a panic, never silently wrong data.

use ndt_store::page::{decode_page, encode_page, ColType, ColumnData, Encoding, PageHeader};
use ndt_store::PageError;
use proptest::prelude::*;

/// Rebuilds the on-disk header a reader would parse for this page.
fn header_of(page: &ndt_store::page::EncodedPage) -> PageHeader {
    PageHeader {
        encoding: page.encoding.tag(),
        rows: page.rows,
        len: page.payload.len() as u32,
        checksum: page.checksum,
        stat_a: page.stat_a,
        stat_b: page.stat_b,
    }
}

fn roundtrip(data: &ColumnData) -> ColumnData {
    let page = encode_page(data);
    decode_page(&header_of(&page), &page.payload, data.col_type()).expect("round-trip decodes")
}

/// Bitwise equality: `f64` columns compare as bit patterns so NaN
/// payloads and `-0.0` count.
fn bits_equal(a: &ColumnData, b: &ColumnData) -> bool {
    match (a, b) {
        (ColumnData::F64(x), ColumnData::F64(y)) => {
            x.len() == y.len()
                && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// i64 delta+varint round-trips arbitrary values, with the extremes
    /// appended so every case also exercises i64::MIN/MAX wrapping deltas.
    #[test]
    fn i64_delta_varint_roundtrips(
        body in prop::collection::vec((0u64..u64::MAX).prop_map(|v| v as i64), 0..200),
    ) {
        let mut values = body;
        values.extend([i64::MIN, i64::MAX, 0, -1, 1, i64::MIN + 1]);
        let data = ColumnData::I64(values);
        let page = encode_page(&data);
        prop_assert_eq!(page.encoding, Encoding::DeltaVarint);
        prop_assert!(bits_equal(&roundtrip(&data), &data));
    }

    /// u32 columns round-trip whether the encoder picks dictionary or raw.
    #[test]
    fn u32_dict_or_raw_roundtrips(
        distinct in 1usize..20,
        picks in prop::collection::vec(0u64..1_000_000, 0..300),
        base in 0u32..4_000_000,
    ) {
        let values: Vec<u32> = picks
            .iter()
            .map(|&p| base.wrapping_add((p % distinct as u64) as u32 * 977))
            .collect();
        let data = ColumnData::U32(values);
        let page = encode_page(&data);
        prop_assert!(
            matches!(page.encoding, Encoding::Dict | Encoding::Raw32),
            "unexpected encoding {:?}", page.encoding
        );
        prop_assert!(bits_equal(&roundtrip(&data), &data));
    }

    /// u64 columns round-trip at varint boundaries (values around 2^63,
    /// u64::MAX) in both dictionary and raw form.
    #[test]
    fn u64_varint_boundaries_roundtrip(
        body in prop::collection::vec(0u64..u64::MAX, 0..150),
        repeat in 0u64..u64::MAX,
        nrep in 0usize..50,
    ) {
        // High-cardinality tail plus a repeated run: depending on the mix
        // the encoder picks Raw64 or Dict; both must round-trip.
        let mut values = body;
        values.extend(std::iter::repeat(repeat).take(nrep));
        values.extend([0, 1, 127, 128, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1]);
        let data = ColumnData::U64(values);
        prop_assert!(bits_equal(&roundtrip(&data), &data));
    }

    /// f64 pages round-trip exact bit patterns: random bits double as
    /// NaN payloads; the classic specials are always appended.
    #[test]
    fn f64_bit_patterns_roundtrip(
        bits in prop::collection::vec(0u64..u64::MAX, 0..200),
    ) {
        let mut values: Vec<f64> = bits.into_iter().map(f64::from_bits).collect();
        values.extend([
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
        ]);
        let data = ColumnData::F64(values);
        let page = encode_page(&data);
        prop_assert_eq!(page.encoding, Encoding::F64Raw);
        prop_assert!(bits_equal(&roundtrip(&data), &data));
    }

    /// A single repeated value always dictionary-encodes (1-entry dict)
    /// and round-trips, for both unsigned widths.
    #[test]
    fn single_value_dictionaries_roundtrip(v32 in 0u32..u32::MAX, v64 in 0u64..u64::MAX, n in 2usize..500) {
        let d32 = ColumnData::U32(vec![v32; n]);
        let p32 = encode_page(&d32);
        prop_assert_eq!(p32.encoding, Encoding::Dict, "run of one u32 value must dict-encode");
        prop_assert!(bits_equal(&roundtrip(&d32), &d32));

        let d64 = ColumnData::U64(vec![v64; n]);
        let p64 = encode_page(&d64);
        prop_assert_eq!(p64.encoding, Encoding::Dict, "run of one u64 value must dict-encode");
        prop_assert!(bits_equal(&roundtrip(&d64), &d64));
    }

    /// Any single corrupted payload byte is caught by the page checksum:
    /// a typed error, never a panic, never silently wrong values.
    #[test]
    fn corrupted_payload_byte_yields_typed_error(
        values in prop::collection::vec((0u64..u64::MAX).prop_map(|v| v as i64), 1..100),
        flip_pos in 0u64..1_000_000,
        flip_bit in 0u32..8,
    ) {
        let data = ColumnData::I64(values);
        let page = encode_page(&data);
        prop_assume!(!page.payload.is_empty());
        let mut payload = page.payload.clone();
        let idx = (flip_pos % payload.len() as u64) as usize;
        payload[idx] ^= 1 << flip_bit;
        let err = decode_page(&header_of(&page), &payload, ColType::I64)
            .expect_err("corrupted payload must not decode");
        prop_assert!(matches!(err, PageError::Checksum { .. }), "got {err:?}");
    }

    /// A truncated payload fails the checksum before any value decode.
    #[test]
    fn truncated_payload_yields_typed_error(
        values in prop::collection::vec(0u64..u64::MAX, 1..100),
        cut in 0u64..1_000_000,
    ) {
        let data = ColumnData::U64(values);
        let page = encode_page(&data);
        prop_assume!(!page.payload.is_empty());
        let keep = (cut % page.payload.len() as u64) as usize;
        let err = decode_page(&header_of(&page), &page.payload[..keep], ColType::U64)
            .expect_err("truncated payload must not decode");
        prop_assert!(matches!(err, PageError::Checksum { .. }), "got {err:?}");
    }
}

/// Empty columns of every type encode to empty pages and round-trip.
#[test]
fn empty_columns_roundtrip() {
    for data in [
        ColumnData::I64(Vec::new()),
        ColumnData::U32(Vec::new()),
        ColumnData::U64(Vec::new()),
        ColumnData::F64(Vec::new()),
    ] {
        let page = encode_page(&data);
        assert_eq!(page.rows, 0);
        let back = decode_page(&header_of(&page), &page.payload, data.col_type())
            .expect("empty page decodes");
        assert!(back.is_empty());
        assert_eq!(back.col_type(), data.col_type());
    }
}

/// A dictionary code pointing past the dictionary is a typed error even
/// when the checksum is recomputed to match (i.e. a malicious rather
/// than accidental corruption).
#[test]
fn out_of_range_dict_code_is_typed_error() {
    let data = ColumnData::U32(vec![7; 64]);
    let page = encode_page(&data);
    assert_eq!(page.encoding, Encoding::Dict);
    // Payload: dict_len=1, dict=[7], then 64 zero codes. Patch one code
    // to 5 (out of range) and fix up the checksum so only the code is bad.
    let mut payload = page.payload.clone();
    let last = payload.len() - 1;
    payload[last] = 5;
    let header = PageHeader {
        encoding: page.encoding.tag(),
        rows: page.rows,
        len: payload.len() as u32,
        checksum: ndt_store::wire::fnv1a64(&payload),
        stat_a: page.stat_a,
        stat_b: page.stat_b,
    };
    let err = decode_page(&header, &payload, ColType::U32).expect_err("bad code must not decode");
    assert!(
        matches!(err, PageError::CodeOutOfRange { code: 5, dict_len: 1 }),
        "got {err:?}"
    );
}

/// An unknown encoding tag is a typed error.
#[test]
fn unknown_encoding_tag_is_typed_error() {
    let data = ColumnData::I64(vec![1, 2, 3]);
    let page = encode_page(&data);
    let mut header = header_of(&page);
    header.encoding = 99;
    let err = decode_page(&header, &page.payload, ColType::I64).expect_err("unknown tag");
    assert!(matches!(err, PageError::Encoding(99)), "got {err:?}");
}
