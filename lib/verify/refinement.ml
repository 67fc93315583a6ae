type observation = string

let observation_of_outcome (o : Conc.Runner.outcome) =
  Array.to_list o.results
  |> List.map (function Some v -> Cal.Value.show v | None -> "?")
  |> String.concat " | "

let observations ~setup ~fuel ?max_runs ?strategy () =
  let seen = Hashtbl.create 64 in
  let _ =
    Conc.Explore.exhaustive ~setup ~fuel ?max_runs ?strategy
      ~f:(fun o -> Hashtbl.replace seen (observation_of_outcome o) ())
      ()
  in
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort String.compare

type result = {
  impl_observations : int;
  spec_observations : int;
  unexplained : observation list;
}

let check ~concrete ~abstract ~fuel ?max_runs ?strategy () =
  let impl = observations ~setup:concrete ~fuel ?max_runs ?strategy () in
  let spec = observations ~setup:abstract ~fuel ?max_runs ?strategy () in
  {
    impl_observations = List.length impl;
    spec_observations = List.length spec;
    unexplained = List.filter (fun o -> not (List.mem o spec)) impl;
  }

let refines r = r.unexplained = []

let pp_result ppf r =
  if refines r then
    Fmt.pf ppf "refines: every one of %d observable outcomes also arises from the spec (%d)"
      r.impl_observations r.spec_observations
  else
    Fmt.pf ppf "@[<v>REFINEMENT FAILS: %d outcomes the specification forbids:@,%a@]"
      (List.length r.unexplained)
      (Fmt.list ~sep:Fmt.cut Fmt.string)
      r.unexplained
