//! The client decodes every row of each packed `More` payload and checks
//! the rows against the `Done` frame's count: a fake server answers one
//! request right and the next with a count that lies.

use axs_client::wire::{self, put_str, put_u64, Frame};
use axs_client::{Client, ClientError};
use std::net::TcpListener;

/// Answers `answers.len()` requests, each with a `More` frame per element
/// of its rows, holding those rows packed, then `Done` with its count.
fn fake_server(
    answers: Vec<(Vec<Vec<&'static str>>, u64)>,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut reader = std::io::BufReader::new(sock.try_clone().unwrap());
        wire::write_hello(&mut sock).unwrap();
        wire::read_hello(&mut reader).unwrap();
        for (frames, count) in answers {
            let req = wire::read_frame(&mut reader).unwrap();
            for rows in frames {
                let mut p = Vec::new();
                for (i, xml) in rows.into_iter().enumerate() {
                    if req.opcode == wire::OpCode::Query as u8 {
                        p.push(1);
                        put_u64(&mut p, i as u64 + 1);
                    }
                    put_str(&mut p, xml);
                }
                wire::encode_frame(&mut sock, &Frame::more(req.req_id, req.opcode, p)).unwrap();
            }
            let done = Frame::done(req.req_id, req.opcode, count.to_le_bytes().to_vec());
            wire::write_frame(&mut sock, &done).unwrap();
        }
    });
    (addr, server)
}

#[test]
fn rows_are_decoded_from_every_packed_frame() {
    let (addr, server) = fake_server(vec![
        (vec![vec!["<a/>", "<b/>"], vec!["<c/>"]], 3),
        (vec![vec!["<r>1</r>", "<r>2</r>"], vec!["<r>3</r>"]], 3),
        (vec![], 0),
    ]);
    let mut client = Client::connect(addr).unwrap();
    let matches = client.query("//x").unwrap();
    let xml: Vec<&str> = matches.iter().map(|m| m.xml.as_str()).collect();
    assert_eq!(xml, ["<a/>", "<b/>", "<c/>"]);
    assert_eq!(matches[1].id, Some(2));
    let rows = client.flwor("for $x in //x return { $x }").unwrap();
    assert_eq!(rows, ["<r>1</r>", "<r>2</r>", "<r>3</r>"]);
    assert!(client.query("//none").unwrap().is_empty());
    server.join().unwrap();
}

#[test]
fn a_done_count_that_differs_from_the_rows_is_a_wire_error() {
    let (addr, server) = fake_server(vec![
        (vec![vec!["<a/>", "<b/>"]], 3),
        (vec![vec!["<r/>"], vec!["<r/>"]], 3),
        (vec![vec!["<a/>"]], 1),
    ]);
    let mut client = Client::connect(addr).unwrap();
    let err = client.query("//x").unwrap_err();
    assert!(
        matches!(&err, ClientError::Wire(e) if e.message.contains("2 rows")),
        "{err}"
    );
    let err = client.flwor("for $x in //x return { $x }").unwrap_err();
    assert!(matches!(err, ClientError::Wire(_)), "{err}");
    // The answer was read to its end, so the stream is still framed.
    assert_eq!(client.query("//x").unwrap().len(), 1);
    server.join().unwrap();
}
