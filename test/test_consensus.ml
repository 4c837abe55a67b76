(* Tests for the consensus substrate: ballots, multi-Paxos and Raft
   (election safety, log safety, partitions). *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Ballot *)

let ballot_ordering () =
  let open Consensus.Ballot in
  let a = { num = 1; site = 0 } and b = { num = 1; site = 1 } and c = { num = 2; site = 0 } in
  check bool "site breaks ties" true (b > a);
  check bool "num dominates" true (c > b);
  check bool "next increments" true (next a ~site:5 > a);
  check bool "equal" true (equal a a)

(* ------------------------------------------------------------------ *)
(* Multi-Paxos *)

type mp_cluster = {
  mp_engine : Des.Engine.t;
  mp_network : int Consensus.Multipaxos.msg Geonet.Network.t;
  mp_nodes : int Consensus.Multipaxos.t array;
  applied : (int * int) list ref; (* node, command *)
}

let mp_cluster ?(n = 5) ~seed () =
  let engine = Des.Engine.create ~seed () in
  let regions = Array.init n (fun i -> List.nth Geonet.Region.default_five (i mod 5)) in
  let network = Geonet.Network.create engine ~regions () in
  let applied = ref [] in
  let membership = List.init n (fun i -> i) in
  let nodes =
    Array.init n (fun id ->
        Consensus.Multipaxos.create ~engine ~id ~nodes:membership ~leader:0
          ~send:(fun dst msg -> Geonet.Network.send network ~src:id ~dst msg)
          ~on_apply:(fun _ c -> applied := (id, c) :: !applied)
          ())
  in
  Array.iteri
    (fun id node ->
      Geonet.Network.register network ~node:id (fun envelope ->
          Consensus.Multipaxos.handle node ~src:envelope.Geonet.Network.src
            envelope.Geonet.Network.payload))
    nodes;
  (* The module is retry-free by contract: the owner retransmits. *)
  let rec retry () =
    Des.Engine.schedule engine ~delay_ms:500.0 (fun () ->
        if Consensus.Multipaxos.pending_count nodes.(0) > 0 then
          Consensus.Multipaxos.resend_pending nodes.(0);
        if Des.Engine.pending engine > 0 then retry ())
  in
  retry ();
  { mp_engine = engine; mp_network = network; mp_nodes = nodes; applied }

let multipaxos_commits_in_order () =
  let cluster = mp_cluster ~seed:6L () in
  let commits = ref [] in
  for command = 1 to 10 do
    Consensus.Multipaxos.submit cluster.mp_nodes.(0) command ~on_commit:(fun () ->
        commits := command :: !commits)
  done;
  Des.Engine.run cluster.mp_engine ~until_ms:10_000.0;
  check (Alcotest.list int) "commit order" (List.init 10 (fun i -> i + 1)) (List.rev !commits);
  let leader_applied =
    List.filter (fun (node, _) -> node = 0) !(cluster.applied) |> List.map snd |> List.rev
  in
  check (Alcotest.list int) "leader applied in order" (List.init 10 (fun i -> i + 1))
    leader_applied

let multipaxos_follower_submission_rejected () =
  let cluster = mp_cluster ~seed:7L () in
  Alcotest.check_raises "not the leader" (Invalid_argument "Multipaxos.submit: not the leader")
    (fun () -> Consensus.Multipaxos.submit cluster.mp_nodes.(1) 1 ~on_commit:ignore)

let multipaxos_blocks_without_majority () =
  let cluster = mp_cluster ~seed:8L () in
  Geonet.Network.crash cluster.mp_network 2;
  Geonet.Network.crash cluster.mp_network 3;
  Geonet.Network.crash cluster.mp_network 4;
  let committed = ref false in
  Consensus.Multipaxos.submit cluster.mp_nodes.(0) 42 ~on_commit:(fun () -> committed := true);
  Des.Engine.run cluster.mp_engine ~until_ms:10_000.0;
  check bool "no commit without majority" false !committed;
  (* Recover one node and retransmit: commit completes. *)
  Geonet.Network.recover cluster.mp_network 2;
  Consensus.Multipaxos.resend_pending cluster.mp_nodes.(0);
  Des.Engine.run cluster.mp_engine ~until_ms:20_000.0;
  check bool "commits after recovery" true !committed

(* ------------------------------------------------------------------ *)
(* Raft *)

type raft_cluster = {
  r_engine : Des.Engine.t;
  r_network : int Consensus.Raft.msg Geonet.Network.t;
  rafts : int Consensus.Raft.t array;
  r_applied : (int, int list ref) Hashtbl.t;
}

let raft_cluster ?(n = 5) ~seed () =
  let engine = Des.Engine.create ~seed () in
  let regions = Array.init n (fun i -> List.nth Geonet.Region.default_five (i mod 5)) in
  let network = Geonet.Network.create engine ~regions () in
  let membership = List.init n (fun i -> i) in
  let r_applied = Hashtbl.create 8 in
  let rafts =
    Array.init n (fun id ->
        let log = ref [] in
        Hashtbl.replace r_applied id log;
        Consensus.Raft.create ~engine ~id ~nodes:membership
          ~send:(fun dst msg -> Geonet.Network.send network ~src:id ~dst msg)
          ~election_timeout_ms:(1_000.0, 2_000.0) ~heartbeat_ms:300.0
          ~on_apply:(fun _ c -> log := c :: !log)
          ())
  in
  Array.iteri
    (fun id raft ->
      Geonet.Network.register network ~node:id (fun envelope ->
          Consensus.Raft.handle raft ~src:envelope.Geonet.Network.src
            envelope.Geonet.Network.payload))
    rafts;
  { r_engine = engine; r_network = network; rafts; r_applied }

let raft_leaders cluster =
  Array.to_list cluster.rafts |> List.filter Consensus.Raft.is_leader

let raft_elects_single_leader () =
  let cluster = raft_cluster ~seed:9L () in
  Array.iter Consensus.Raft.start cluster.rafts;
  Des.Engine.run cluster.r_engine ~until_ms:15_000.0;
  let leaders = raft_leaders cluster in
  check int "exactly one leader" 1 (List.length leaders)

let raft_replicates_and_applies () =
  let cluster = raft_cluster ~seed:10L () in
  Array.iter Consensus.Raft.start cluster.rafts;
  Des.Engine.run cluster.r_engine ~until_ms:15_000.0;
  let leader = List.hd (raft_leaders cluster) in
  let commits = ref 0 in
  for command = 1 to 5 do
    match Consensus.Raft.submit leader command ~on_commit:(fun () -> incr commits) with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "leader rejected submit"
  done;
  Des.Engine.run cluster.r_engine ~until_ms:25_000.0;
  check int "all committed" 5 !commits;
  (* Every node applied the same prefix in the same order. *)
  Hashtbl.iter
    (fun _ log ->
      check (Alcotest.list int) "applied order" [ 1; 2; 3; 4; 5 ] (List.rev !log))
    cluster.r_applied

let raft_submit_rejected_at_follower () =
  let cluster = raft_cluster ~seed:11L () in
  Array.iter Consensus.Raft.start cluster.rafts;
  Des.Engine.run cluster.r_engine ~until_ms:15_000.0;
  let follower =
    Array.to_list cluster.rafts |> List.find (fun r -> not (Consensus.Raft.is_leader r))
  in
  (match Consensus.Raft.submit follower 1 ~on_commit:ignore with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "follower accepted a submit")

let raft_reelects_after_leader_crash () =
  let cluster = raft_cluster ~seed:12L () in
  Array.iter Consensus.Raft.start cluster.rafts;
  Des.Engine.run cluster.r_engine ~until_ms:15_000.0;
  let old_leader = List.hd (raft_leaders cluster) in
  let old_term = Consensus.Raft.current_term old_leader in
  (* Crash it. *)
  Array.iteri
    (fun id raft ->
      if Consensus.Raft.is_leader raft then begin
        Geonet.Network.crash cluster.r_network id;
        Consensus.Raft.pause raft
      end)
    cluster.rafts;
  Des.Engine.run cluster.r_engine ~until_ms:60_000.0;
  let leaders = raft_leaders cluster in
  check int "new leader elected" 1 (List.length leaders);
  check bool "term advanced" true (Consensus.Raft.current_term (List.hd leaders) > old_term)

let raft_log_safety_across_leader_change () =
  let cluster = raft_cluster ~seed:13L () in
  Array.iter Consensus.Raft.start cluster.rafts;
  Des.Engine.run cluster.r_engine ~until_ms:15_000.0;
  let leader = List.hd (raft_leaders cluster) in
  for command = 1 to 3 do
    ignore (Consensus.Raft.submit leader command ~on_commit:ignore)
  done;
  Des.Engine.run cluster.r_engine ~until_ms:25_000.0;
  (* Crash the leader, elect a new one, commit more entries. *)
  Array.iteri
    (fun id raft ->
      if Consensus.Raft.is_leader raft then begin
        Geonet.Network.crash cluster.r_network id;
        Consensus.Raft.pause raft
      end)
    cluster.rafts;
  Des.Engine.run cluster.r_engine ~until_ms:70_000.0;
  let new_leader = List.hd (raft_leaders cluster) in
  for command = 4 to 6 do
    ignore (Consensus.Raft.submit new_leader command ~on_commit:ignore)
  done;
  Des.Engine.run cluster.r_engine ~until_ms:100_000.0;
  (* Log safety: applied sequences at live nodes agree on their common
     prefix and include 1..6 at the new leader. *)
  let logs =
    Hashtbl.fold
      (fun id log acc -> if Geonet.Network.is_up cluster.r_network id then List.rev !log :: acc else acc)
      cluster.r_applied []
  in
  let rec common_prefix a b =
    match (a, b) with
    | x :: xs, y :: ys when x = y -> x :: common_prefix xs ys
    | _ -> []
  in
  List.iter
    (fun log ->
      List.iter
        (fun other ->
          let p = common_prefix log other in
          let shorter = min (List.length log) (List.length other) in
          check int "prefixes agree" shorter (List.length p))
        logs)
    logs;
  check bool "new leader applied all six" true
    (List.exists (fun log -> log = [ 1; 2; 3; 4; 5; 6 ]) logs)

let raft_minority_partition_cannot_commit () =
  let cluster = raft_cluster ~seed:14L () in
  Array.iter Consensus.Raft.start cluster.rafts;
  Des.Engine.run cluster.r_engine ~until_ms:15_000.0;
  let leader_id =
    let found = ref (-1) in
    Array.iteri (fun id r -> if Consensus.Raft.is_leader r then found := id) cluster.rafts;
    !found
  in
  (* Put the leader in a 2-node minority. *)
  let peer = (leader_id + 1) mod 5 in
  let minority = [ leader_id; peer ] in
  let majority = List.filter (fun i -> not (List.mem i minority)) [ 0; 1; 2; 3; 4 ] in
  Geonet.Network.set_partition cluster.r_network [ minority; majority ];
  let committed = ref false in
  ignore
    (Consensus.Raft.submit cluster.rafts.(leader_id) 99 ~on_commit:(fun () ->
         committed := true));
  Des.Engine.run cluster.r_engine ~until_ms:40_000.0;
  check bool "minority leader cannot commit" false !committed;
  (* The majority side elected its own leader at a higher term. *)
  let majority_leader =
    List.exists (fun id -> Consensus.Raft.is_leader cluster.rafts.(id)) majority
  in
  check bool "majority elected a leader" true majority_leader

let suite =
  [
    Alcotest.test_case "ballot: ordering" `Quick ballot_ordering;
    Alcotest.test_case "multipaxos: ordered commits" `Quick multipaxos_commits_in_order;
    Alcotest.test_case "multipaxos: follower rejects" `Quick
      multipaxos_follower_submission_rejected;
    Alcotest.test_case "multipaxos: majority required" `Quick
      multipaxos_blocks_without_majority;
    Alcotest.test_case "raft: single leader" `Quick raft_elects_single_leader;
    Alcotest.test_case "raft: replicates and applies" `Quick raft_replicates_and_applies;
    Alcotest.test_case "raft: follower rejects submit" `Quick raft_submit_rejected_at_follower;
    Alcotest.test_case "raft: re-election on crash" `Quick raft_reelects_after_leader_crash;
    Alcotest.test_case "raft: log safety across leader change" `Quick
      raft_log_safety_across_leader_change;
    Alcotest.test_case "raft: minority cannot commit" `Quick
      raft_minority_partition_cannot_commit;
  ]
