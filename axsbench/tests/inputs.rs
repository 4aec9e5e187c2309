//! The generated inputs: deterministic by seed, and the shadow's idea of
//! the right answers agrees with an embedded store.

use axs_core::{ReadView, StoreBuilder};
use axs_xdm::NodeId;
use axsbench::gen::{self, ReadKind};
use axsbench::wire::{Inputs, Workload};

/// Shrunk op counts keep these tests in the tens of milliseconds.
const SHRINK: usize = 20;

#[test]
fn same_seed_same_op_stream_and_different_seeds_differ() {
    for workload in Workload::ALL {
        let a = Inputs::generate(workload, 2005, SHRINK);
        let b = Inputs::generate(workload, 2005, SHRINK);
        let c = Inputs::generate(workload, 2006, SHRINK);
        assert_eq!(a.base_xml, b.base_xml, "{}", workload.name());
        assert_eq!(
            a.op_stream_hash(),
            b.op_stream_hash(),
            "{}",
            workload.name()
        );
        assert_ne!(
            a.op_stream_hash(),
            c.op_stream_hash(),
            "{}",
            workload.name()
        );
    }
    // Workloads do not share an op stream either.
    let hashes: std::collections::BTreeSet<u64> = Workload::ALL
        .iter()
        .map(|w| Inputs::generate(*w, 2005, SHRINK).op_stream_hash())
        .collect();
    assert_eq!(hashes.len(), Workload::ALL.len());
}

#[test]
fn warm_up_is_part_of_every_stream() {
    let inputs = Inputs::generate(Workload::ReadHot, 1, SHRINK);
    let timed = inputs.sizes.main_reads;
    for plan in &inputs.read_plans {
        assert_eq!(plan.len(), timed + timed.div_ceil(10));
        // The opcode mix holds at every prefix.
        assert_eq!(plan[0].kind, ReadKind::Node);
        assert_eq!(plan[5].kind, ReadKind::Value);
    }
    let inputs = Inputs::generate(Workload::Ingest, 1, SHRINK);
    let timed = inputs.sizes.main_writes;
    assert_eq!(inputs.feeds.len(), 2, "one feed per connection");
    assert!(inputs
        .feeds
        .iter()
        .all(|f| f.len() == timed + timed.div_ceil(10)));
}

#[test]
fn shadow_answers_match_an_embedded_store() {
    let inputs = Inputs::generate(Workload::ReadHot, 7, SHRINK);
    let mut store = StoreBuilder::new().build().unwrap();
    let loaded = store.bulk_insert(inputs.base.tokens()).unwrap();
    assert_eq!(loaded.start.get(), inputs.base.root_id);
    assert_eq!(store.read_all().unwrap(), inputs.base.tokens());
    for target in inputs.targets.iter().take(200) {
        let id = NodeId(target.id());
        let tpl = target.tpl();
        assert_eq!(gen::xml_of(&store.read_node(id).unwrap()), tpl.xml);
        assert_eq!(store.string_value(id).unwrap(), tpl.value);
        let kids: Vec<(u64, String)> = store
            .children_of(id)
            .unwrap()
            .into_iter()
            .map(|kid| {
                let name = store.name_of(kid).unwrap();
                (kid.get(), name.map(|q| q.to_lexical()).unwrap_or_default())
            })
            .collect();
        let want: Vec<(u64, String)> = tpl
            .kids
            .iter()
            .map(|(off, name)| (target.start + off, name.clone()))
            .collect();
        assert_eq!(kids, want);
        assert_eq!(store.parent_of(id).unwrap(), Some(NodeId(target.parent())));
    }
}

#[test]
fn query_expectations_match_the_engines() {
    for workload in [Workload::ReadHot, Workload::QueryScan] {
        let inputs = Inputs::generate(workload, 11, SHRINK);
        let mut store = StoreBuilder::new().build().unwrap();
        store.bulk_insert(inputs.base.tokens()).unwrap();
        for q in &inputs.queries {
            let got = match q.kind {
                gen::QueryKind::XPath => {
                    let compiled = axs_xpath::compile(&q.text).unwrap();
                    axs_xpath::evaluate_store(&store, &compiled).unwrap().len()
                }
                gen::QueryKind::Flwor => {
                    let parsed = axs_xquery::parse_flwor(&q.text).unwrap();
                    axs_xquery::evaluate_flwor(&store, &parsed).unwrap().len()
                }
            };
            assert_eq!(got, inputs.base.expected(&q.expect), "{}", q.text);
            assert!(got > 0, "{} matches nothing", q.text);
        }
    }
}
