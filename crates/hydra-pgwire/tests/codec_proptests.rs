//! Codec robustness: the pgwire decoders are pure prefix parsers that must
//! never panic — not on arbitrary garbage, not on truncations, not on
//! hostile length fields — and must be exact inverses of the encoders on
//! every legal message.

use hydra_pgwire::codec::{
    decode_backend, decode_frontend, decode_startup, encode_backend, encode_frontend,
    encode_startup, read_backend_message, BackendMessage, Decoded, FieldDescription,
    FrontendMessage, StartupPacket, MAX_MESSAGE_BYTES,
};
use hydra_pgwire::error::PgWireError;
use proptest::prelude::*;

/// NUL-free printable ASCII (legal inside the protocol's cstrings).
fn ascii(max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(32u8..127, 0..max_len)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

/// Nonempty printable ASCII — startup parameter *keys* can never be empty
/// (an empty key's encoding is the parameter-list terminator itself).
fn ascii1(max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(32u8..127, 1..max_len)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

fn assert_roundtrip_backend(message: BackendMessage) {
    let mut wire = Vec::new();
    encode_backend(&message, &mut wire);
    match decode_backend(&wire) {
        Ok(Decoded::Complete {
            message: decoded,
            consumed,
        }) => {
            assert_eq!(decoded, message);
            assert_eq!(consumed, wire.len());
        }
        other => panic!("round trip failed for {message:?}: {other:?}"),
    }
}

fn assert_roundtrip_frontend(message: FrontendMessage) {
    let mut wire = Vec::new();
    encode_frontend(&message, &mut wire);
    match decode_frontend(&wire) {
        Ok(Decoded::Complete {
            message: decoded,
            consumed,
        }) => {
            assert_eq!(decoded, message);
            assert_eq!(consumed, wire.len());
        }
        other => panic!("round trip failed for {message:?}: {other:?}"),
    }
}

/// Every strict prefix of a well-formed message must decode as
/// `Incomplete` — never an error, never a bogus `Complete`.
fn assert_prefixes_incomplete<T: std::fmt::Debug>(
    wire: &[u8],
    decode: impl Fn(&[u8]) -> Result<Decoded<T>, PgWireError>,
) {
    for cut in 0..wire.len() {
        match decode(&wire[..cut]) {
            Ok(Decoded::Incomplete) => {}
            other => panic!("prefix of {cut} bytes decoded as {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes never panic any decoder (they may decode, signal
    /// incompleteness, or report a protocol error — all are fine).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_startup(&bytes);
        let _ = decode_frontend(&bytes);
        let _ = decode_backend(&bytes);
        let _ = read_backend_message(&mut bytes.as_slice());
    }

    /// A length field exceeding the 64 MiB cap is rejected before any
    /// allocation, whatever the advertised size.
    #[test]
    fn oversized_lengths_are_rejected(
        tag in any::<u8>(),
        excess in 1u32..1_000_000,
    ) {
        let hostile = (MAX_MESSAGE_BYTES + 4).saturating_add(excess) as i32;
        let mut wire = vec![tag];
        wire.extend_from_slice(&hostile.to_be_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        prop_assert!(matches!(decode_frontend(&wire), Err(PgWireError::Protocol(_))));
        prop_assert!(matches!(decode_backend(&wire), Err(PgWireError::Protocol(_))));
        // Startup packets share the cap (their length field is the first 4 bytes).
        prop_assert!(matches!(decode_startup(&wire[1..]), Err(PgWireError::Protocol(_))));
        // The client's blocking reader refuses identically instead of
        // allocating.
        prop_assert!(matches!(
            read_backend_message(&mut wire.as_slice()),
            Err(PgWireError::Protocol(_))
        ));
    }

    /// Negative and impossible length fields are protocol errors, not
    /// panics or giant allocations.
    #[test]
    fn negative_lengths_are_rejected(tag in any::<u8>(), len in i32::MIN..4) {
        let mut wire = vec![tag];
        wire.extend_from_slice(&len.to_be_bytes());
        prop_assert!(matches!(decode_frontend(&wire), Err(PgWireError::Protocol(_))));
        prop_assert!(matches!(decode_backend(&wire), Err(PgWireError::Protocol(_))));
    }

    /// encode ∘ decode = id for `Query`, and every truncation of the
    /// encoding asks for more bytes.
    #[test]
    fn query_roundtrip_and_truncation(sql in ascii(64)) {
        let message = FrontendMessage::Query { sql };
        assert_roundtrip_frontend(message.clone());
        let mut wire = Vec::new();
        encode_frontend(&message, &mut wire);
        assert_prefixes_incomplete(&wire, decode_frontend);
    }

    /// encode ∘ decode = id for startup packets, including truncations.
    #[test]
    fn startup_roundtrip_and_truncation(
        minor in 0u16..8,
        params in proptest::collection::vec((ascii1(12), ascii(12)), 0..5),
    ) {
        let message = StartupPacket::Startup { major: 3, minor, params };
        let mut wire = Vec::new();
        encode_startup(&message, &mut wire);
        match decode_startup(&wire) {
            Ok(Decoded::Complete { message: decoded, consumed }) => {
                prop_assert_eq!(decoded, message);
                prop_assert_eq!(consumed, wire.len());
            }
            other => panic!("startup round trip failed: {other:?}"),
        }
        assert_prefixes_incomplete(&wire, decode_startup);
    }

    /// encode ∘ decode = id for `RowDescription`.
    #[test]
    fn row_description_roundtrip(
        fields in proptest::collection::vec(
            (ascii(16), any::<u32>(), any::<i16>()),
            0..6,
        )
    ) {
        let fields = fields
            .into_iter()
            .map(|(name, type_oid, type_len)| FieldDescription { name, type_oid, type_len })
            .collect();
        assert_roundtrip_backend(BackendMessage::RowDescription { fields });
    }

    /// encode ∘ decode = id for `DataRow`, including NULLs and truncations.
    #[test]
    fn data_row_roundtrip_and_truncation(
        values in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..24)),
            0..8,
        )
    ) {
        let values: Vec<Option<Vec<u8>>> = values
            .into_iter()
            .map(|(null, bytes)| if null { None } else { Some(bytes) })
            .collect();
        let message = BackendMessage::DataRow { values };
        assert_roundtrip_backend(message.clone());
        let mut wire = Vec::new();
        encode_backend(&message, &mut wire);
        assert_prefixes_incomplete(&wire, decode_backend);
        // Mid-message EOF on the client's blocking reader surfaces as a
        // clean `UnexpectedEof`, never a panic.
        for cut in 1..wire.len() {
            let result = read_backend_message(&mut &wire[..cut]);
            prop_assert!(
                matches!(result, Err(PgWireError::UnexpectedEof)),
                "mid-message EOF at {cut} gave {result:?}"
            );
        }
    }

    /// encode ∘ decode = id for `ErrorResponse` (nonzero field codes).
    #[test]
    fn error_response_roundtrip(
        fields in proptest::collection::vec((1u8..=255, ascii(24)), 0..5)
    ) {
        assert_roundtrip_backend(BackendMessage::ErrorResponse { fields });
    }

    /// encode ∘ decode = id for the fixed-shape backend messages.
    #[test]
    fn simple_backend_roundtrips(
        name in ascii(16),
        value in ascii(16),
        pid in any::<i32>(),
        secret in any::<i32>(),
        status in any::<u8>(),
        tag in ascii(24),
    ) {
        assert_roundtrip_backend(BackendMessage::AuthenticationOk);
        assert_roundtrip_backend(BackendMessage::EmptyQueryResponse);
        assert_roundtrip_backend(BackendMessage::ParameterStatus { name, value });
        assert_roundtrip_backend(BackendMessage::BackendKeyData { pid, secret });
        assert_roundtrip_backend(BackendMessage::ReadyForQuery { status });
        assert_roundtrip_backend(BackendMessage::CommandComplete { tag });
    }

    /// `Terminate` / `Sync` round trip; unknown tags survive framing.
    #[test]
    fn control_message_roundtrips(tag in any::<u8>()) {
        assert_roundtrip_frontend(FrontendMessage::Terminate);
        assert_roundtrip_frontend(FrontendMessage::Sync);
        if !matches!(tag, b'Q' | b'X' | b'S') {
            assert_roundtrip_frontend(FrontendMessage::Unknown { tag });
        }
    }
}

/// The magic startup codes decode to their typed forms.
#[test]
fn magic_startup_codes() {
    for (packet, expect_len) in [
        (StartupPacket::SslRequest, 8),
        (StartupPacket::GssEncRequest, 8),
        (
            StartupPacket::Cancel {
                pid: 42,
                secret: -7,
            },
            16,
        ),
    ] {
        let mut wire = Vec::new();
        encode_startup(&packet, &mut wire);
        assert_eq!(wire.len(), expect_len);
        match decode_startup(&wire) {
            Ok(Decoded::Complete { message, consumed }) => {
                assert_eq!(message, packet);
                assert_eq!(consumed, wire.len());
            }
            other => panic!("magic code failed to round trip: {other:?}"),
        }
    }
}
