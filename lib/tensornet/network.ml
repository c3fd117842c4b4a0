type t = Tensor.t list

type plan = Sequential | Greedy

type stats = {
  multiplications : int;
  peak_tensor_size : int;
  contractions : int;
}

let empty = []
let add tensor net = net @ [ tensor ]
let of_list tensors = tensors
let tensors net = net
let tensor_count = List.length

let open_labels net =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun tensor ->
      Array.iter
        (fun l ->
          Hashtbl.replace counts l (1 + Option.value ~default:0 (Hashtbl.find_opt counts l)))
        (Tensor.labels tensor))
    net;
  Hashtbl.fold (fun l c acc -> if c = 1 then l :: acc else acc) counts []
  |> List.sort compare

let memory_bytes net = List.fold_left (fun acc t -> acc + Tensor.memory_bytes t) 0 net

let p_tensor_size = Qdt_obs.Metrics.peak "tn.peak_tensor_size"
let p_tensor_rank = Qdt_obs.Metrics.peak "tn.peak_tensor_rank"

let contract_pair stats a b =
  let cost = Tensor.contract_cost a b in
  let result = Tensor.contract a b in
  Qdt_obs.Metrics.raise_to_int p_tensor_size (Tensor.size result);
  Qdt_obs.Metrics.raise_to_int p_tensor_rank (Tensor.rank result);
  let s =
    {
      multiplications = stats.multiplications + cost;
      peak_tensor_size = max stats.peak_tensor_size (Tensor.size result);
      contractions = stats.contractions + 1;
    }
  in
  (result, s)

let sequential net =
  match net with
  | [] -> invalid_arg "Network.contract_all: empty network"
  | first :: rest ->
      List.fold_left
        (fun (acc, stats) tensor -> contract_pair stats acc tensor)
        (first, { multiplications = 0; peak_tensor_size = Tensor.size first; contractions = 0 })
        rest

let shares_label a b =
  Array.exists (fun l -> Array.exists (( = ) l) (Tensor.labels b)) (Tensor.labels a)

let result_size a b =
  let la = Tensor.labels a and lb = Tensor.labels b in
  let shared l = Array.exists (( = ) l) lb in
  let free_a = Array.to_list la |> List.filter (fun l -> not (shared l)) in
  let shared_b l = Array.exists (( = ) l) la in
  let free_b = Array.to_list lb |> List.filter (fun l -> not (shared_b l)) in
  let dim t ls =
    let sh = Tensor.shape t and lab = Tensor.labels t in
    List.fold_left
      (fun acc l ->
        let k = ref 0 in
        Array.iteri (fun i x -> if x = l then k := i) lab;
        acc * sh.(!k))
      1 ls
  in
  dim a free_a * dim b free_b

let greedy net =
  match net with
  | [] -> invalid_arg "Network.contract_all: empty network"
  | [ only ] ->
      (only, { multiplications = 0; peak_tensor_size = Tensor.size only; contractions = 0 })
  | _ ->
      let pool = ref (Array.of_list net) in
      let stats =
        ref
          {
            multiplications = 0;
            peak_tensor_size = List.fold_left (fun acc t -> max acc (Tensor.size t)) 0 net;
            contractions = 0;
          }
      in
      while Array.length !pool > 1 do
        let best = ref None in
        let arr = !pool in
        for i = 0 to Array.length arr - 2 do
          for j = i + 1 to Array.length arr - 1 do
            (* Prefer pairs that actually share a bond; among those pick the
               smallest result, breaking ties by multiplication cost. *)
            let connected = shares_label arr.(i) arr.(j) in
            let sz = result_size arr.(i) arr.(j) in
            let cost = Tensor.contract_cost arr.(i) arr.(j) in
            let score = ((not connected), sz, cost) in
            match !best with
            | None -> best := Some (score, i, j)
            | Some (best_score, _, _) -> if score < best_score then best := Some (score, i, j)
          done
        done;
        (match !best with
        | None -> assert false
        | Some (_, i, j) ->
            let merged, s = contract_pair !stats arr.(i) arr.(j) in
            stats := s;
            let remaining =
              Array.to_list arr
              |> List.filteri (fun k _ -> k <> i && k <> j)
            in
            pool := Array.of_list (merged :: remaining))
      done;
      ((!pool).(0), !stats)

let contract_all ?(plan = Greedy) net =
  match plan with Sequential -> sequential net | Greedy -> greedy net

let bond_labels net =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun tensor ->
      Array.iter
        (fun l ->
          Hashtbl.replace counts l (1 + Option.value ~default:0 (Hashtbl.find_opt counts l)))
        (Tensor.labels tensor))
    net;
  Hashtbl.fold (fun l c acc -> if c >= 2 then l :: acc else acc) counts []
  |> List.sort compare

let contract_scalar_sliced ?plan ~labels net =
  let bonds = bond_labels net in
  List.iter
    (fun l ->
      if not (List.mem l bonds) then
        invalid_arg "Network.contract_scalar_sliced: label is not a bond")
    labels;
  let k = List.length labels in
  if k > 20 then invalid_arg "Network.contract_scalar_sliced: too many sliced labels";
  let positioned = List.mapi (fun pos l -> (pos, l)) labels in
  (* One slice: fix every sliced label to its bit in [assignment], then
     contract the slimmed network.  Pure — tensors are immutable and
     [contract_all] keeps no shared state — so slices are independent
     tasks. *)
  let slice_one assignment =
    let sliced =
      List.map
        (fun tensor ->
          List.fold_left
            (fun t (pos, l) ->
              if Array.exists (( = ) l) (Tensor.labels t) then
                Tensor.fix t ~label:l ~value:((assignment lsr pos) land 1)
              else t)
            tensor positioned)
        net
    in
    let result, s = contract_all ?plan sliced in
    (Tensor.to_scalar result, s)
  in
  let total = 1 lsl k in
  let fold slices =
    let acc = ref Qdt_linalg.Cx.zero in
    let stats = ref { multiplications = 0; peak_tensor_size = 0; contractions = 0 } in
    Array.iter
      (fun (z, s) ->
        acc := Qdt_linalg.Cx.add !acc z;
        stats :=
          {
            multiplications = !stats.multiplications + s.multiplications;
            peak_tensor_size = max !stats.peak_tensor_size s.peak_tensor_size;
            contractions = !stats.contractions + s.contractions;
          })
      slices;
    (!acc, !stats)
  in
  if Qdt_par.jobs () <= 1 || total < 2 then
    (* Serial: same arithmetic order as the historical loop. *)
    fold (Array.init total slice_one)
  else
    (* Slices fan out across the domain pool; [Qdt_par.map] lands each
       result at its assignment's index, so the fold order — and hence
       the rounded sum — is identical at any job count >= 2. *)
    fold (Qdt_par.map slice_one (Array.init total Fun.id))
