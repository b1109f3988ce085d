//! Request execution: one parsed [`Request`] against a [`StreamResolver`],
//! one reply line back. This is the whole service layer — parsing happens
//! once, in the front end, and queueing, ordering and backpressure belong
//! there too (`weber-net`'s reactor for TCP, its blocking loop for stdio;
//! see [`server`](crate::server)), which calls [`process_request`] from
//! whatever thread it chose.

use crate::protocol::{self, Request};
use crate::resolver::StreamResolver;

/// Process one parsed request against the resolver.
pub fn process_request(resolver: &StreamResolver, request: &Request) -> String {
    match request {
        Request::Seed { name, docs } => match resolver.seed(name, docs) {
            Ok(summary) => protocol::ok_seed(name, &summary),
            Err(e) => protocol::err_response(&e),
        },
        Request::Ingest { name, text, url } => match resolver.ingest(name, text, url.as_deref()) {
            Ok(assignment) => protocol::ok_ingest(name, &assignment),
            Err(e) => protocol::err_response(&e),
        },
        Request::Resolve { name } => match resolver.resolve_name(name) {
            Ok(summary) => protocol::ok_resolve(&summary),
            Err(e) => protocol::err_response(&e),
        },
        Request::Entities { name: Some(name) } => match resolver.entities(name) {
            Ok(table) => protocol::ok_entities(&table),
            Err(e) => protocol::err_response(&e),
        },
        Request::Entities { name: None } => match resolver.entities_all() {
            Ok(tables) => protocol::ok_entities_all(&tables),
            Err(e) => protocol::err_response(&e),
        },
        Request::SameAs {
            name,
            a,
            b,
            retract,
        } => match resolver.same_as(name, *a, *b, *retract) {
            Ok(table) => {
                let active = table
                    .links
                    .iter()
                    .any(|l| (l.a == *a && l.b == *b) || (l.a == *b && l.b == *a));
                protocol::ok_same_as(&table, *a, *b, *retract, active)
            }
            Err(e) => protocol::err_response(&e),
        },
        Request::Constraint { name, action } => match resolver.constrain(name, action) {
            Ok((added, table)) => protocol::ok_constraint(&table, added),
            Err(e) => protocol::err_response(&e),
        },
        Request::Snapshot => protocol::ok_snapshot(&resolver.snapshot()),
        Request::Metrics => protocol::ok_metrics(&resolver.metrics().merged_snapshot()),
        Request::Health => protocol::ok_health(&resolver.health()),
        Request::Persist => match resolver.persist_all() {
            Ok(written) => protocol::ok_count("persist", written),
            Err(e) => protocol::err_response(&e),
        },
        Request::Restore => match resolver.restore_all() {
            Ok(restored) => protocol::ok_count("restore", restored),
            Err(e) => protocol::err_response(&e),
        },
        Request::Flush => protocol::ok_plain("flush"),
        Request::Shutdown => protocol::ok_plain("shutdown"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StreamConfig;
    use weber_extract::gazetteer::Gazetteer;

    fn gazetteer() -> Gazetteer {
        let mut g = Gazetteer::new();
        g.add_phrases(
            weber_extract::gazetteer::EntityKind::Concept,
            ["databases", "gardening"],
        );
        g
    }

    fn resolver() -> StreamResolver {
        StreamResolver::new(StreamConfig::default(), &gazetteer()).unwrap()
    }

    fn seed_line() -> String {
        r#"{"op":"seed","name":"cohen","docs":[
            {"text":"databases are fun and databases are important","label":0},
            {"text":"databases are hard but databases pay well","label":0},
            {"text":"gardening tips for growing roses","label":1},
            {"text":"gardening advice on pruning roses","label":1}]}"#
            .replace('\n', " ")
    }

    fn reply(resolver: &StreamResolver, line: &str) -> serde::Value {
        let request = protocol::parse_request(line).unwrap();
        serde_json::parse_value(&process_request(resolver, &request)).unwrap()
    }

    #[test]
    fn process_request_works_without_a_queue() {
        let r = resolver();
        let v = reply(&r, &seed_line());
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let v = reply(&r, r#"{"op":"snapshot"}"#);
        assert_eq!(v.get("names").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn resolve_sees_the_ingest_admitted_before_it() {
        let r = resolver();
        reply(&r, &seed_line());
        reply(
            &r,
            r#"{"op":"ingest","name":"cohen","text":"databases again"}"#,
        );
        let v = reply(&r, r#"{"op":"resolve","name":"cohen"}"#);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("op").unwrap().as_str(), Some("resolve"));
        assert_eq!(v.get("docs").unwrap().as_u64(), Some(5));
        let v = reply(&r, r#"{"op":"resolve","name":"nobody"}"#);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("unknown-name"));
    }

    #[test]
    fn persist_and_restore_round_trip_over_the_wire() {
        let dir = std::env::temp_dir().join(format!(
            "weber_service_persist_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StreamConfig::default().with_state_dir(&dir);
        let r = StreamResolver::new(config.clone(), &gazetteer()).unwrap();
        reply(&r, &seed_line());
        let persisted = reply(&r, r#"{"op":"persist"}"#);
        assert_eq!(persisted.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(persisted.get("names").unwrap().as_u64(), Some(1));
        // A fresh resolver restores it over the wire.
        let r2 = StreamResolver::new(config, &gazetteer()).unwrap();
        let restored = reply(&r2, r#"{"op":"restore"}"#);
        assert_eq!(restored.get("names").unwrap().as_u64(), Some(1));
        assert_eq!(
            r2.partition("cohen").unwrap(),
            r.partition("cohen").unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_op_reports_ingest_activity() {
        let r = resolver();
        reply(&r, &seed_line());
        for i in 0..3 {
            reply(
                &r,
                &format!(r#"{{"op":"ingest","name":"cohen","text":"databases text number {i}"}}"#),
            );
        }
        let v = reply(&r, r#"{"op":"metrics"}"#);
        assert_eq!(v.get("op").unwrap().as_str(), Some("metrics"));
        let counters = v.get("counters").unwrap();
        assert_eq!(counters.get("stream.ingests").unwrap().as_u64(), Some(3));
        assert_eq!(counters.get("stream.seeds").unwrap().as_u64(), Some(1));
        let ingest_us = v
            .get("histograms")
            .unwrap()
            .get("stream.ingest_us")
            .unwrap();
        assert_eq!(ingest_us.get("count").unwrap().as_u64(), Some(3));
        // No pool is running, so its backlog and size gauges read zero.
        let gauges = v.get("gauges").unwrap();
        for gauge in ["net.queue_depth", "net.workers", "net.queue_capacity"] {
            assert_eq!(gauges.get(gauge).unwrap().as_u64(), Some(0), "{gauge}");
        }
        assert!(gauges.get("stream.queue_depth").is_none());
    }
}
