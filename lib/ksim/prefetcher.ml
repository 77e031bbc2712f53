type t = {
  name : string;
  on_access : pid:int -> page:int -> hit:bool -> now:int -> int list;
  reset : unit -> unit;
}

let none =
  { name = "none"; on_access = (fun ~pid:_ ~page:_ ~hit:_ ~now:_ -> []); reset = ignore }

let next_n ~depth =
  if depth <= 0 then invalid_arg "Prefetcher.next_n: depth must be positive";
  { name = Printf.sprintf "next%d" depth;
    on_access = (fun ~pid:_ ~page ~hit:_ ~now:_ -> List.init depth (fun i -> page + i + 1));
    reset = ignore }
